//! The durability plane: epoch snapshots + update WAL on disk.
//!
//! Everything the service serves lives in RAM — the base shards, the
//! delta overlays, the epoch counter. This module makes the *committed*
//! part of that state survive `kill -9`:
//!
//! * every [`QueryService::apply_updates`](crate::QueryService::apply_updates)
//!   batch is appended to a checksummed **write-ahead log** *before*
//!   it is buffered anywhere (write-ahead ordering), and every epoch
//!   commit appends a `Commit` fence naming the epoch it published;
//! * at a configurable commit cadence the whole engine value — base
//!   adjacency, live delta overlays, partition boundaries, epoch — is
//!   written as a **snapshot** (temp file + atomic rename, every frame
//!   CRC-checksummed, see [`cgraph_graph::snapshot`]). A snapshot only
//!   bounds how much WAL a restart replays — an acknowledged commit
//!   rests on its fsynced fence alone — so the commit merely *takes* a
//!   `SnapshotJob` under its locks and the plane's writer thread does
//!   the encoding and the file work beside the readers;
//! * [`QueryService::open_or_recover`](crate::QueryService::open_or_recover)
//!   rebuilds the newest *valid* snapshot (torn or bit-flipped tips
//!   are detected by checksum and skipped), replays the WAL tail past
//!   the snapshot's sequence number commit by commit, restores any
//!   uncommitted logged updates into the pending buffer, and resumes
//!   serving at the recovered epoch.
//!
//! Recovery never reads past a failed checksum: a torn WAL tail is
//! truncated (once, at open), and a snapshot that fails *any* frame
//! checksum is rejected whole.
//!
//! Disk faults from the chaos plane
//! ([`FaultPlan::with_torn_write`](cgraph_comm::chaos::FaultPlan::with_torn_write)
//! and friends) are injected here, on the write path, via
//! [`cgraph_graph::DiskFaults`] — deterministic torn/short/bit-flip
//! writes and lost renames, so crash-restart tests can prove the
//! recovery invariants under scripted corruption.

use crate::config::EngineConfig;
use crate::engine::DistributedEngine;
use crate::partition::RangePartition;
use cgraph_graph::snapshot::{
    decode_snapshot, decode_wal, encode_snapshot, encode_wal_record, DiskFaults, PartitionData,
    SnapshotData, SnapshotTicket, WalRecord, WeightedRows,
};
use cgraph_graph::types::VertexRange;
use cgraph_graph::{DeltaOverlay, Edge, EdgeUpdate};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// File name of the update WAL inside the data directory.
const WAL_FILE: &str = "wal.log";

/// Knobs of the durability plane.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Data directory holding the WAL and the epoch snapshots; created
    /// on first use.
    pub dir: PathBuf,
    /// Epoch commits between snapshots: `1` snapshots every commit,
    /// `8` (the default) every eighth. Must be non-zero — validated at
    /// service construction.
    pub snapshot_every: u64,
    /// Snapshots retained on disk; older ones are pruned after each
    /// successful snapshot write — except the one this process
    /// recovered from, which stays besides. Must be at least 1.
    pub keep_snapshots: usize,
}

impl DurabilityConfig {
    /// Durability into `dir` with the default cadence (snapshot every
    /// 8 commits, keep 3 snapshots).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), snapshot_every: 8, keep_snapshots: 3 }
    }

    /// Sets the snapshot cadence (commits between snapshots).
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }
}

/// Lifetime counters of the durability plane — published one-for-one
/// by the service as the `cgraph_durability_*` metric families.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (updates + commit fences).
    pub wal_records: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Snapshots written (counted when the writer books a job whose
    /// rename landed — shortly after the commit that made it due has
    /// returned, and finally by `shutdown()`; a rename lost to fault
    /// injection still counts the attempt's bytes but not the
    /// snapshot).
    pub snapshots_written: u64,
    /// Bytes of encoded snapshot data written.
    pub snapshot_bytes: u64,
    /// WAL records replayed during recovery.
    pub wal_replayed: u64,
    /// Snapshot files rejected during recovery (failed checksum,
    /// truncation, bad magic) before a valid one was found.
    pub snapshots_corrupt: u64,
    /// Crash recoveries performed (0 on a fresh start, 1 when this
    /// service was rebuilt from durable state).
    pub recoveries: u64,
    /// Epoch of the newest snapshot that reached its final name.
    pub last_snapshot_epoch: u64,
}

/// What [`QueryService::open_or_recover`](crate::QueryService::open_or_recover)
/// found and did before the service started serving.
#[derive(Clone, Debug, Default)]
pub struct RecoveryOutcome {
    /// True when durable state was found and the engine was rebuilt
    /// from it; false on a fresh start.
    pub recovered: bool,
    /// The graph epoch the service resumed at.
    pub epoch: u64,
    /// Snapshot files examined during the scan.
    pub snapshots_scanned: usize,
    /// Snapshot files rejected as corrupt before a valid one was found.
    pub snapshots_corrupt: usize,
    /// WAL records replayed past the snapshot's sequence number.
    pub wal_records_replayed: u64,
    /// Torn-tail bytes truncated off the WAL.
    pub wal_truncated_bytes: u64,
    /// Logged-but-uncommitted updates restored into the pending buffer.
    pub pending_restored: usize,
}

/// Why the durability plane failed to open, write, or recover.
#[derive(Debug)]
pub enum DurabilityError {
    /// Filesystem failure (open, write, sync, rename).
    Io(std::io::Error),
    /// The durable state is internally inconsistent — e.g. a WAL
    /// commit record names an epoch the replayed engine did not reach.
    Inconsistent(String),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O failure: {e}"),
            DurabilityError::Inconsistent(what) => {
                write!(f, "durable state inconsistent: {what}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Captures `engine`'s full logical state as snapshot data covering
/// WAL records up to and including `last_seq`. Rows are emitted in
/// vertex order, so the same engine state always encodes to the same
/// bytes.
pub fn snapshot_of(engine: &DistributedEngine, last_seq: u64) -> SnapshotData {
    let ranges = engine.partition().ranges().iter().map(|r| (r.start, r.end)).collect();
    let mut partitions = Vec::with_capacity(engine.num_machines());
    let mut scratch = Vec::new();
    for (m, shard) in engine.shards().iter().enumerate() {
        let mut base_rows = WeightedRows::with_capacity(shard.num_local(), shard.num_out_edges());
        for v in shard.local_range().iter() {
            shard.out_neighbors_weighted_into(v, &mut scratch);
            if !scratch.is_empty() {
                base_rows.push_row(v, &scratch);
            }
        }
        let mut delta_inserts = WeightedRows::new();
        let mut delta_deletes = Vec::new();
        if let Some(d) = engine.delta(m) {
            let mut rows: Vec<_> = d.rows().collect();
            rows.sort_by_key(|&(v, _)| v);
            for (v, row) in rows {
                if !row.inserts().is_empty() {
                    delta_inserts.push_row(v, row.inserts());
                }
                if !row.deletes().is_empty() {
                    delta_deletes.push((v, row.deletes().to_vec()));
                }
            }
        }
        partitions.push(PartitionData { base_rows, delta_inserts, delta_deletes });
    }
    SnapshotData {
        epoch: engine.graph_epoch(),
        last_seq,
        num_vertices: engine.num_vertices(),
        ranges,
        partitions,
    }
}

/// Rebuilds an engine value from decoded snapshot data. The snapshot's
/// own partition boundaries and machine count win over
/// `config.num_machines` — a snapshot taken after the service degraded
/// onto fewer machines restores at that width.
pub fn engine_from_snapshot(snap: &SnapshotData, mut config: EngineConfig) -> DistributedEngine {
    config.num_machines = snap.ranges.len();
    let partition = RangePartition::from_ranges(
        snap.ranges.iter().map(|&(s, e)| VertexRange::new(s, e)).collect(),
    );
    assert_eq!(partition.num_vertices(), snap.num_vertices);
    // Each machine's shard is built from its own persisted rows.
    let machine_edges = snap.partitions.iter().map(|part| {
        let mut edges = Vec::with_capacity(part.base_rows.iter().map(|(_, r)| r.len()).sum());
        for (src, row) in part.base_rows.iter() {
            edges.extend(row.iter().map(|&(dst, w)| Edge::weighted(src, dst, w)));
        }
        edges
    });
    // DeltaRow state is rebuilt by replaying the persisted rows through
    // the overlay's own `apply` (deletes and inserts of one row are
    // disjoint sets, so the order between them cannot interfere) —
    // last-update-wins semantics are delta.rs's, not re-implemented.
    let mut overlays: Vec<DeltaOverlay> =
        (0..snap.partitions.len()).map(|_| DeltaOverlay::new()).collect();
    for (m, part) in snap.partitions.iter().enumerate() {
        for (src, dels) in &part.delta_deletes {
            for &dst in dels {
                overlays[m].apply(&EdgeUpdate::Delete { src: *src, dst });
            }
        }
        for (src, ins) in part.delta_inserts.iter() {
            for &(dst, weight) in ins {
                overlays[m].apply(&EdgeUpdate::Insert { src, dst, weight });
            }
        }
    }
    DistributedEngine::restored(machine_edges, partition, overlays, snap.epoch, config)
}

/// One valid snapshot file found during the recovery scan.
struct ScannedSnapshot {
    data: SnapshotData,
}

/// Result of scanning a data directory for durable state.
pub(crate) struct ScanResult {
    /// Newest snapshot that decoded and checksummed cleanly.
    snapshot: Option<ScannedSnapshot>,
    /// Snapshot files rejected before (and after) the valid one.
    corrupt: usize,
    /// Snapshot files examined.
    scanned: usize,
    /// Valid-prefix WAL records, sequence-ascending.
    records: Vec<WalRecord>,
    /// Byte length of the WAL's valid prefix.
    wal_valid_len: u64,
    /// Bytes past the valid prefix (the torn tail to truncate).
    wal_torn_bytes: u64,
}

impl ScanResult {
    /// True when the directory holds any durable footprint — a
    /// snapshot (valid or corrupt) or any WAL bytes. A fresh durable
    /// start refuses such a directory; resuming is recovery's job.
    pub(crate) fn has_state(&self) -> bool {
        self.scanned > 0 || !self.records.is_empty() || self.wal_torn_bytes > 0
    }
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{epoch:016x}.cgs"))
}

/// The epoch a final-name snapshot file was written for (inverse of
/// [`snapshot_path`]); `None` for anything else in the directory.
fn snapshot_epoch(file_name: &str) -> Option<u64> {
    let hex = file_name.strip_prefix("snap-")?.strip_suffix(".cgs")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Creates `dir` if needed and scans it — the fresh-durable-start
/// entry point ([`QueryService::try_start`](crate::QueryService::try_start)
/// uses the result to refuse directories that already hold state).
pub(crate) fn scan_for_start(dir: &Path) -> Result<ScanResult, DurabilityError> {
    fs::create_dir_all(dir)?;
    scan_dir(dir)
}

/// Scans `dir`: decodes the WAL's valid prefix and finds the newest
/// snapshot whose every frame checksums. Corrupt snapshots are
/// counted and skipped — never partially read. `*.tmp` files (writes
/// that never reached their rename) are ignored entirely.
fn scan_dir(dir: &Path) -> Result<ScanResult, DurabilityError> {
    let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(epoch) = snapshot_epoch(&entry.file_name().to_string_lossy()) {
            snaps.push((epoch, entry.path()));
        }
    }
    snaps.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    let mut corrupt = 0usize;
    let mut scanned = 0usize;
    let mut snapshot = None;
    for (_, path) in snaps {
        scanned += 1;
        let bytes = fs::read(&path)?;
        match decode_snapshot(&bytes) {
            Ok(data) => {
                snapshot = Some(ScannedSnapshot { data });
                break;
            }
            Err(_) => corrupt += 1,
        }
    }
    let wal_path = dir.join(WAL_FILE);
    let (records, valid_len, total_len) = if wal_path.exists() {
        let bytes = fs::read(&wal_path)?;
        let (records, valid_len) = decode_wal(&bytes);
        (records, valid_len as u64, bytes.len() as u64)
    } else {
        (Vec::new(), 0, 0)
    };
    Ok(ScanResult {
        snapshot,
        corrupt,
        scanned,
        records,
        wal_valid_len: valid_len,
        wal_torn_bytes: total_len - valid_len,
    })
}

/// The durable state recovery rebuilt, ready to start a service from.
pub(crate) struct RecoveredState {
    /// The rebuilt engine: newest valid snapshot plus replayed WAL
    /// commits — or the caller's bootstrap engine when the directory
    /// held no usable state (fresh start, `outcome.recovered` false).
    pub engine: DistributedEngine,
    /// Logged-but-uncommitted updates to restore into the pending
    /// buffer. Already in the WAL — they must not be re-appended.
    pub pending: Vec<EdgeUpdate>,
    /// What happened, for stats and logs.
    pub outcome: RecoveryOutcome,
}

/// Scans `dir` and rebuilds the newest recoverable state: newest valid
/// snapshot, plus every WAL commit past its sequence number, plus the
/// uncommitted logged tail. When no snapshot survived (all torn, or
/// the initial one's rename was lost) the WAL replays from sequence 0
/// onto `bootstrap()` — the same base graph the original durable
/// start ingested. `fold_threshold` governs replayed commits exactly
/// as it governed the original ones (answers are fold-invariant, so
/// the threshold need not match the crashed process's).
pub(crate) fn recover(
    dir: &Path,
    engine_config: EngineConfig,
    fold_threshold: usize,
    bootstrap: impl FnOnce() -> DistributedEngine,
) -> Result<(RecoveredState, ScanResult), DurabilityError> {
    let scan = scan_dir(dir)?;
    let mut outcome = RecoveryOutcome {
        snapshots_scanned: scan.scanned,
        snapshots_corrupt: scan.corrupt,
        wal_truncated_bytes: scan.wal_torn_bytes,
        ..RecoveryOutcome::default()
    };
    outcome.recovered = scan.snapshot.is_some() || !scan.records.is_empty();
    let (mut engine, last_seq) = match &scan.snapshot {
        Some(s) => (engine_from_snapshot(&s.data, engine_config), s.data.last_seq),
        None => (bootstrap(), 0),
    };
    if scan.snapshot.is_none() && engine.graph_epoch() != 0 {
        return Err(DurabilityError::Inconsistent(format!(
            "bootstrap engine is at epoch {} (expected 0): WAL replay from \
             sequence 0 needs the pristine base graph",
            engine.graph_epoch()
        )));
    }
    let mut pending: Vec<EdgeUpdate> = Vec::new();
    for rec in &scan.records {
        if rec.seq() <= last_seq {
            continue; // already folded into the snapshot: idempotent replay
        }
        outcome.wal_records_replayed += 1;
        match rec {
            WalRecord::Updates { updates, .. } => pending.extend(updates.iter().cloned()),
            WalRecord::Commit { epoch, .. } => {
                let (next, _) = engine.with_updates(&pending, fold_threshold);
                pending.clear();
                if next.graph_epoch() != *epoch {
                    return Err(DurabilityError::Inconsistent(format!(
                        "WAL commit record names epoch {epoch} but replay reached {}",
                        next.graph_epoch()
                    )));
                }
                engine = next;
            }
        }
    }
    outcome.pending_restored = pending.len();
    outcome.epoch = engine.graph_epoch();
    Ok((RecoveredState { engine, pending, outcome }, scan))
}

/// One snapshot write, taken from the plane under its mutex and run
/// without it: the engine value the commit just published, the WAL
/// sequence number it covers, where the file goes, and the fault
/// decisions already drawn for it (so the thread that runs the job
/// cannot reorder the fault schedule against the WAL appends).
pub(crate) struct SnapshotJob {
    engine: Arc<DistributedEngine>,
    last_seq: u64,
    dir: PathBuf,
    keep_snapshots: usize,
    /// Snapshot epoch pruning must leave alone.
    keep_epoch: Option<u64>,
    ticket: SnapshotTicket,
}

/// What a [`SnapshotJob`] did, for [`DurabilityPlane::finish_snapshot`]
/// and the service's registry publication.
#[derive(Debug)]
pub(crate) struct SnapshotOutcome {
    /// The snapshotted epoch.
    pub(crate) epoch: u64,
    /// Bytes that reached the synced temp file (0 when that write
    /// itself failed).
    pub(crate) bytes: u64,
    /// Whether the file reached its final name (`false` = lost to fault
    /// injection, exactly the crash window between write and rename, or
    /// a failed write — recovery falls back to an older snapshot).
    pub(crate) renamed: bool,
    /// Capturing and encoding the engine value.
    pub(crate) encode: Duration,
    /// Temp-file write, fsync, rename and prune.
    pub(crate) write: Duration,
    /// The I/O failure that cut the job short, if any.
    pub(crate) error: Option<DurabilityError>,
}

impl SnapshotJob {
    /// Encode, (maybe) mangle, write to `.tmp`, sync, atomic rename,
    /// prune old snapshots. Takes no lock and touches no counter; the
    /// engine value is released when this returns.
    pub(crate) fn run(self) -> SnapshotOutcome {
        let started = Instant::now();
        let mut bytes = encode_snapshot(&snapshot_of(&self.engine, self.last_seq));
        self.ticket.write.apply(&mut bytes);
        let mut out = SnapshotOutcome {
            epoch: self.engine.graph_epoch(),
            bytes: 0,
            renamed: false,
            encode: started.elapsed(),
            write: Duration::ZERO,
            error: None,
        };
        let started = Instant::now();
        out.error = self.write_files(&bytes, &mut out).err();
        out.write = started.elapsed();
        out
    }

    fn write_files(&self, bytes: &[u8], out: &mut SnapshotOutcome) -> Result<(), DurabilityError> {
        let final_path = snapshot_path(&self.dir, out.epoch);
        let tmp_path = final_path.with_extension("cgs.tmp");
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        out.bytes = bytes.len() as u64;
        if !self.ticket.rename_lost {
            fs::rename(&tmp_path, &final_path)?;
            out.renamed = true;
            prune(&self.dir, self.keep_snapshots, self.keep_epoch)?;
        }
        Ok(())
    }
}

/// Removes all but the newest `keep` snapshot files, plus any stale
/// `.tmp` leftovers (one job is in flight at a time, so no `.tmp` seen
/// here belongs to a live write). The snapshot of epoch `anchor` — the
/// one recovery loaded — stays whatever its age: retention goes by
/// file name, a write that landed corrupted counts like a good one,
/// and `keep` of those in a row would otherwise push out the last
/// snapshot known to decode. When that one lies past a hole in the WAL
/// (the log was torn and serving went on) nothing older can stand in
/// for it.
fn prune(dir: &Path, keep: usize, anchor: Option<u64>) -> Result<(), DurabilityError> {
    let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        } else if let Some(epoch) = snapshot_epoch(&name) {
            snaps.push((epoch, entry.path()));
        }
    }
    snaps.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    for (epoch, path) in snaps.into_iter().skip(keep.max(1)) {
        if Some(epoch) != anchor {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// The live durability plane of one running service: the open WAL,
/// the sequence counter, the snapshot cadence state, the fault
/// injector, and the writer thread that runs handed-off snapshot jobs.
/// The service guards it with a mutex that nests strictly inside the
/// pending-updates lock (WAL order must equal buffer order).
#[derive(Debug)]
pub(crate) struct DurabilityPlane {
    cfg: DurabilityConfig,
    wal: File,
    /// Next WAL sequence number to assign.
    next_seq: u64,
    /// Sequence number of the last `Commit` record whose effects are
    /// in the published engine. Snapshots cover exactly this — never a
    /// logged-but-uncommitted updates record, whose effects live only
    /// in the pending buffer and must replay after a crash.
    last_committed_seq: u64,
    /// Commits since the epoch of the last snapshot that reached its
    /// final name — what a restart would replay, in commits.
    commits_since_snapshot: u64,
    faults: Option<DiskFaults>,
    stats: DurabilityStats,
    /// Set while a job is taken and [`DurabilityPlane::finish_snapshot`]
    /// has not run for it yet, to what `commits_since_snapshot` read
    /// when it was taken. One job at a time and no queue: a commit that
    /// finds this set skips its snapshot and the next commit retries.
    snapshot_in_flight: Option<u64>,
    /// Epoch of the snapshot recovery loaded, if any: the one file this
    /// process knows to be valid. Pruning never removes it — see
    /// [`prune`].
    recovered_snapshot_epoch: Option<u64>,
    /// The thread running — or that last ran — a handed-off job.
    writer: Option<JoinHandle<()>>,
}

impl DurabilityPlane {
    /// Opens the plane over a scanned directory: truncates the WAL's
    /// torn tail (the one place recovery discards bytes), reopens it
    /// for append, and resumes the sequence counter past every logged
    /// record.
    pub(crate) fn open(
        cfg: DurabilityConfig,
        scan: &ScanResult,
        faults: Option<DiskFaults>,
        recovered: bool,
    ) -> Result<Self, DurabilityError> {
        fs::create_dir_all(&cfg.dir)?;
        let wal_path = cfg.dir.join(WAL_FILE);
        if scan.wal_torn_bytes > 0 {
            let f = OpenOptions::new().write(true).open(&wal_path)?;
            f.set_len(scan.wal_valid_len)?;
            f.sync_all()?;
        }
        let wal = OpenOptions::new().create(true).append(true).open(&wal_path)?;
        // The recovered snapshot may lie *past* the WAL's valid prefix
        // (the log was torn and serving went on, snapshotting later
        // epochs). Neither counter may fall back behind what it
        // covers: a start-up checkpoint naming an older fence would
        // make the next restart replay records whose effects the
        // snapshot already holds, and new records numbered below it
        // would be skipped as already applied.
        let snapshot_seq = scan.snapshot.as_ref().map(|s| s.data.last_seq).unwrap_or(0);
        let next_seq = scan.records.last().map(|r| r.seq()).unwrap_or(0).max(snapshot_seq) + 1;
        let last_snapshot_epoch = scan.snapshot.as_ref().map(|s| s.data.epoch).unwrap_or(0);
        let last_committed_seq = scan
            .records
            .iter()
            .rev()
            .find(|r| matches!(r, WalRecord::Commit { .. }))
            .map(|r| r.seq())
            .unwrap_or(0)
            .max(snapshot_seq);
        Ok(Self {
            cfg,
            wal,
            next_seq,
            last_committed_seq,
            commits_since_snapshot: 0,
            faults,
            stats: DurabilityStats {
                snapshots_corrupt: scan.corrupt as u64,
                recoveries: u64::from(recovered),
                last_snapshot_epoch,
                ..DurabilityStats::default()
            },
            snapshot_in_flight: None,
            recovered_snapshot_epoch: scan.snapshot.as_ref().map(|s| s.data.epoch),
            writer: None,
        })
    }

    /// Lifetime counters (includes recovery-time counts).
    pub(crate) fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Adds recovery-time replay counts (recovery happens before the
    /// plane exists, so the outcome is folded in afterwards).
    pub(crate) fn note_recovery(&mut self, outcome: &RecoveryOutcome) {
        self.stats.wal_replayed += outcome.wal_records_replayed;
    }

    /// Appends one record to the WAL through the fault injector and
    /// returns `(seq, bytes_appended)`. A mangled append lands exactly
    /// as a crash mid-write would leave it; the in-memory service keeps
    /// running and recovery later truncates at the damage.
    fn append(&mut self, rec: WalRecord) -> Result<(u64, u64), DurabilityError> {
        let seq = rec.seq();
        let mut bytes = encode_wal_record(&rec);
        if let Some(f) = &self.faults {
            f.mangle(&mut bytes);
        }
        self.wal.write_all(&bytes)?;
        self.next_seq = seq + 1;
        self.stats.wal_records += 1;
        self.stats.wal_bytes += bytes.len() as u64;
        Ok((seq, bytes.len() as u64))
    }

    /// Logs one buffered-updates batch (write-ahead: called before the
    /// updates enter the pending buffer).
    pub(crate) fn append_updates(
        &mut self,
        updates: &[EdgeUpdate],
    ) -> Result<(u64, u64), DurabilityError> {
        self.append(WalRecord::Updates { seq: self.next_seq, updates: updates.to_vec() })
    }

    /// Logs an epoch-commit fence and syncs the WAL (group commit: the
    /// sync covers every update record logged before it).
    pub(crate) fn append_commit(&mut self, epoch: u64) -> Result<(u64, u64), DurabilityError> {
        let r = self.append(WalRecord::Commit { seq: self.next_seq, epoch })?;
        self.last_committed_seq = r.0;
        self.wal.sync_all()?;
        Ok(r)
    }

    /// Counts one commit towards the snapshot cadence and, when that
    /// makes a snapshot due and the writer is idle, takes the job that
    /// writes `engine` — the value whose effects the commit's fence
    /// covers. `None` otherwise; a commit that finds an earlier job
    /// unfinished leaves the cadence primed, so the next commit asks
    /// again and its snapshot subsumes this one.
    ///
    /// The job's fault decisions are drawn here, under the plane mutex,
    /// at *every* commit — due or not, writer busy or not. Whether a
    /// commit is due depends on when the writer booked its last job, so
    /// rolls drawn only for due commits would shift every later WAL
    /// append's rolls with the writer's timing; one ticket per commit
    /// keeps them a function of the order of commits alone.
    pub(crate) fn snapshot_job_at_commit(
        &mut self,
        engine: &Arc<DistributedEngine>,
    ) -> Option<SnapshotJob> {
        self.commits_since_snapshot += 1;
        let ticket = self.draw_ticket();
        if self.commits_since_snapshot < self.cfg.snapshot_every {
            return None;
        }
        self.take_snapshot_job(engine, ticket)
    }

    /// The job for a snapshot that is still due with no commit left to
    /// retry it — the last due commit found the writer busy, or its
    /// write was lost. For shutdown, once the writer is joined.
    pub(crate) fn overdue_snapshot_job(
        &mut self,
        engine: &Arc<DistributedEngine>,
    ) -> Option<SnapshotJob> {
        if self.commits_since_snapshot < self.cfg.snapshot_every {
            return None;
        }
        let ticket = self.draw_ticket();
        self.take_snapshot_job(engine, ticket)
    }

    fn draw_ticket(&self) -> SnapshotTicket {
        self.faults.as_ref().map(DiskFaults::snapshot_ticket).unwrap_or_default()
    }

    /// One job in flight and no queue: `None` while an earlier job has
    /// not been booked.
    pub(crate) fn take_snapshot_job(
        &mut self,
        engine: &Arc<DistributedEngine>,
        ticket: SnapshotTicket,
    ) -> Option<SnapshotJob> {
        if self.snapshot_in_flight.is_some() {
            return None;
        }
        self.snapshot_in_flight = Some(self.commits_since_snapshot);
        Some(SnapshotJob {
            engine: Arc::clone(engine),
            last_seq: self.last_committed_seq,
            dir: self.cfg.dir.clone(),
            keep_snapshots: self.cfg.keep_snapshots,
            keep_epoch: self.recovered_snapshot_epoch,
            ticket,
        })
    }

    /// Books a finished job: byte and snapshot counters, the newest
    /// snapshot epoch and the cadence reset move together, and the
    /// plane accepts the next job. The cadence restarts from the
    /// snapshotted epoch — commits that landed while the file was being
    /// written still count towards the next snapshot, so the replay a
    /// restart faces stays bounded by the cadence, not by the cadence
    /// plus a write. A failed or rename-lost write resets nothing — the
    /// WAL alone recovers the epoch, and the next commit retries.
    pub(crate) fn finish_snapshot(&mut self, out: &SnapshotOutcome) {
        let at_take = self.snapshot_in_flight.take().unwrap_or(0);
        self.stats.snapshot_bytes += out.bytes;
        if out.renamed {
            self.stats.snapshots_written += 1;
            self.stats.last_snapshot_epoch = out.epoch;
            self.commits_since_snapshot -= at_take;
        }
    }

    /// Takes, runs and books a snapshot job on the calling thread —
    /// start-up's checkpoint, before any dispatcher or writer exists.
    ///
    /// When the snapshot recovery loaded is already at `engine`'s epoch
    /// no commit was replayed past it, and the file on disk — the one
    /// file this process knows to be valid — *is* this checkpoint:
    /// writing it again would only push it through the fault injector.
    /// The ticket is drawn and discarded all the same, as for a commit
    /// that is not due, so every later roll falls where it fell.
    pub(crate) fn checkpoint(
        &mut self,
        engine: &Arc<DistributedEngine>,
    ) -> Result<(), DurabilityError> {
        let ticket = self.draw_ticket();
        if self.recovered_snapshot_epoch == Some(engine.graph_epoch()) {
            return Ok(());
        }
        let job =
            self.take_snapshot_job(engine, ticket).expect("no snapshot job in flight at start-up");
        let out = job.run();
        self.finish_snapshot(&out);
        out.error.map_or(Ok(()), Err)
    }

    /// Runs `job` on the plane's writer thread and hands what it did to
    /// `publish` there (the caller's closure takes the locks and calls
    /// [`DurabilityPlane::finish_snapshot`]; the plane cannot lock
    /// itself). The previous writer has booked its job — or this one
    /// could not have been taken — so joining it first costs its exit.
    pub(crate) fn spawn_writer(
        &mut self,
        job: SnapshotJob,
        publish: impl FnOnce(SnapshotOutcome) + Send + 'static,
    ) {
        self.join_writer();
        let spawned = std::thread::Builder::new()
            .name("cgraph-snapshot-writer".into())
            .spawn(move || publish(job.run()));
        match spawned {
            Ok(handle) => self.writer = Some(handle),
            Err(e) => {
                eprintln!("cgraph durability: cannot start the snapshot writer: {e}");
                self.snapshot_in_flight = None;
            }
        }
    }

    /// The writer's handle, for a caller that must join it *without*
    /// holding the plane mutex (the writer takes that mutex to book its
    /// job).
    pub(crate) fn take_writer(&mut self) -> Option<JoinHandle<()>> {
        self.writer.take()
    }

    fn join_writer(&mut self) {
        if let Some(handle) = self.writer.take() {
            join_snapshot_writer(handle);
        }
    }

    /// Flushes and syncs the WAL — the shutdown barrier: once this
    /// returns, every logged update survives a subsequent kill.
    pub(crate) fn sync(&mut self) -> Result<(), DurabilityError> {
        self.wal.sync_all()?;
        Ok(())
    }
}

/// Joins a snapshot writer, reporting a panic instead of hiding it.
/// Joining from the writer itself (it dropped the last reference to the
/// service that owns its plane) would deadlock, so that one case is
/// skipped — the thread is on its way out anyway.
pub(crate) fn join_snapshot_writer(handle: JoinHandle<()>) {
    if handle.thread().id() == std::thread::current().id() {
        return;
    }
    if handle.join().is_err() {
        eprintln!("cgraph durability: the snapshot writer panicked; its snapshot is lost");
    }
}

impl Drop for DurabilityPlane {
    /// A dropped plane leaves no thread still writing into its
    /// directory.
    fn drop(&mut self) {
        self.join_writer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use cgraph_graph::snapshot::WriteFault;
    use cgraph_graph::EdgeList;

    fn test_engine() -> DistributedEngine {
        let edges: EdgeList = [(0u64, 1u64), (1, 2), (2, 3), (3, 0), (1, 3)].into_iter().collect();
        DistributedEngine::new(&edges, EngineConfig::new(2))
    }

    #[test]
    fn snapshot_round_trips_through_engine() {
        let engine = test_engine();
        let (engine, _) =
            engine.with_updates(&[EdgeUpdate::insert(0, 3), EdgeUpdate::delete(1, 2)], usize::MAX);
        let snap = snapshot_of(&engine, 17);
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.last_seq, 17);
        let restored = engine_from_snapshot(&snap, *engine.config());
        assert_eq!(restored.graph_epoch(), 1);
        assert_eq!(restored.num_vertices(), engine.num_vertices());
        assert_eq!(restored.delta_entries(), engine.delta_entries());
        // Logical equality: the re-snapshot of the restored engine is
        // identical, covering base rows and overlay rows alike.
        assert_eq!(snapshot_of(&restored, 17), snap);
    }

    #[test]
    fn folded_and_overlay_restores_agree() {
        let updates = [EdgeUpdate::insert(2, 0), EdgeUpdate::delete(3, 0)];
        let (overlaid, folded_flag) = test_engine().with_updates(&updates, usize::MAX);
        assert!(!folded_flag);
        let (folded, folded_flag) = test_engine().with_updates(&updates, 0);
        assert!(folded_flag);
        let a = engine_from_snapshot(&snapshot_of(&overlaid, 1), *overlaid.config());
        let b = engine_from_snapshot(&snapshot_of(&folded, 1), *folded.config());
        // Different physical states (overlay vs folded base), same
        // logical adjacency: effective out-rows must agree everywhere.
        for v in 0..a.num_vertices() {
            let row = |e: &DistributedEngine, v: u64| {
                let m = e.partition().owner(v);
                let shard = &e.shards()[m];
                let base = shard.out_neighbors_weighted(v);
                match e.delta(m) {
                    Some(d) => d.merge_row(v, &base),
                    None => base,
                }
            };
            assert_eq!(row(&a, v), row(&b, v), "vertex {v}");
        }
    }

    /// A fresh data directory (removed on drop) with an open plane
    /// over it, checkpointed at `test_engine()`'s epoch 0.
    struct Scratch {
        dir: PathBuf,
    }

    impl Scratch {
        fn open(tag: &str, cadence: u64) -> (Self, DurabilityPlane, Arc<DistributedEngine>) {
            let dir = std::env::temp_dir().join(format!("cgraph-dur-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let scan = scan_for_start(&dir).unwrap();
            let cfg = DurabilityConfig::new(&dir).snapshot_every(cadence);
            let mut plane = DurabilityPlane::open(cfg, &scan, None, false).unwrap();
            let engine = Arc::new(test_engine());
            plane.checkpoint(&engine).unwrap();
            (Self { dir }, plane, engine)
        }

        fn has_snapshot(&self, epoch: u64) -> bool {
            snapshot_path(&self.dir, epoch).exists()
        }

        fn tmp_files(&self) -> usize {
            fs::read_dir(&self.dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp"))
                .count()
        }

        /// Recovers the directory as a restarted process would and
        /// checks the result against the engine the "crashed" process
        /// was serving: same epoch, same logical and physical state.
        fn recover_expecting(&self, live: &DistributedEngine) -> RecoveryOutcome {
            let (state, _) = recover(&self.dir, *live.config(), usize::MAX, test_engine).unwrap();
            assert_eq!(state.outcome.epoch, live.graph_epoch(), "an epoch was lost");
            assert_eq!(snapshot_of(&state.engine, 0), snapshot_of(live, 0));
            assert!(state.pending.is_empty());
            state.outcome
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    /// One logged-and-fenced commit of a single insert, as the service
    /// performs it: WAL first, then the new engine value.
    fn commit(
        plane: &mut DurabilityPlane,
        engine: &Arc<DistributedEngine>,
        dst: u64,
    ) -> Arc<DistributedEngine> {
        let updates = [EdgeUpdate::insert(0, dst)];
        plane.append_updates(&updates).unwrap();
        plane.append_commit(engine.graph_epoch() + 1).unwrap();
        Arc::new(engine.with_updates(&updates, usize::MAX).0)
    }

    #[test]
    fn taken_job_blocks_no_append_and_books_counters_with_its_file() {
        let (dir, mut plane, e0) = Scratch::open("job", 2);
        let booted = plane.stats();
        assert_eq!((booted.snapshots_written, booted.last_snapshot_epoch), (1, 0));

        let e1 = commit(&mut plane, &e0, 2);
        assert!(plane.snapshot_job_at_commit(&e1).is_none(), "cadence 2: not due yet");
        let e2 = commit(&mut plane, &e1, 3);
        let job = plane.snapshot_job_at_commit(&e2).expect("due, writer idle");

        // Job taken, not yet run: the WAL keeps accepting records, no
        // file of that epoch exists, no counter has moved, and a second
        // due commit finds the writer busy with the cadence still
        // primed.
        let e3 = commit(&mut plane, &e2, 1);
        assert!(plane.snapshot_job_at_commit(&e3).is_none(), "one job in flight, no queue");
        assert_eq!(plane.commits_since_snapshot, 3, "an unfinished job leaves the cadence primed");
        assert!(!dir.has_snapshot(2));
        let mid = plane.stats();
        assert_eq!(mid.wal_records, 6, "three update records + three fences");
        assert_eq!(
            (mid.snapshots_written, mid.snapshot_bytes, mid.last_snapshot_epoch),
            (booted.snapshots_written, booted.snapshot_bytes, booted.last_snapshot_epoch)
        );

        // After the job: the file, and — booked in one step — the
        // counters, the newest epoch and the cadence reset.
        let out = job.run();
        assert!(out.renamed && out.error.is_none());
        assert_eq!(out.epoch, 2);
        assert!(dir.has_snapshot(2));
        plane.finish_snapshot(&out);
        let done = plane.stats();
        assert_eq!((done.snapshots_written, done.last_snapshot_epoch), (2, 2));
        assert_eq!(done.snapshot_bytes, booted.snapshot_bytes + out.bytes);
        assert_eq!(dir.tmp_files(), 0);
        // The cadence restarts from the snapshotted epoch 2: epoch 3
        // landed meanwhile and counts, so epoch 4 is due again.
        let e4 = commit(&mut plane, &e3, 2);
        let job =
            plane.snapshot_job_at_commit(&e4).expect("commits made during the write still count");
        plane.finish_snapshot(&job.run());
        let e5 = commit(&mut plane, &e4, 3);
        assert!(
            plane.snapshot_job_at_commit(&e5).is_none(),
            "a snapshot booked at once restarts the cadence at zero"
        );
        // With no commit left to retry it, a snapshot that stayed due
        // is shutdown's to write — and only that.
        assert!(plane.overdue_snapshot_job(&e5).is_none(), "one commit since epoch 4: not due");
        let e6 = commit(&mut plane, &e5, 1);
        let mut lost = plane.snapshot_job_at_commit(&e6).expect("due again");
        lost.ticket.rename_lost = true;
        plane.finish_snapshot(&lost.run());
        assert!(!dir.has_snapshot(6));
        let job = plane.overdue_snapshot_job(&e6).expect("a lost write leaves the snapshot due");
        assert!(plane.overdue_snapshot_job(&e6).is_none(), "not while that job is in flight");
        plane.finish_snapshot(&job.run());
        assert!(dir.has_snapshot(6) && dir.tmp_files() == 0);
        assert!(plane.overdue_snapshot_job(&e6).is_none());
    }

    /// The crash windows a detached writer opens. In each the process
    /// "dies" (the plane is dropped, the directory is what it is) and a
    /// restart must land on the last fenced epoch — replaying more WAL
    /// than it would have with the snapshot, never losing an epoch.
    #[test]
    fn crash_windows_of_the_detached_writer_recover_every_fenced_epoch() {
        // With the epoch-2 snapshot on disk, a restart replays only the
        // record pair of epoch 3: the baseline the windows are compared to.
        let replayed_with_snapshot = {
            let (dir, mut plane, e0) = Scratch::open("win-base", 2);
            let e1 = commit(&mut plane, &e0, 2);
            let e2 = commit(&mut plane, &e1, 3);
            plane.checkpoint(&e2).unwrap();
            let e3 = commit(&mut plane, &e2, 1);
            drop(plane);
            dir.recover_expecting(&e3).wal_records_replayed
        };
        assert_eq!(replayed_with_snapshot, 2);

        // (a) Job taken but never run.
        {
            let (dir, mut plane, e0) = Scratch::open("win-a", 2);
            let e1 = commit(&mut plane, &e0, 2);
            assert!(plane.snapshot_job_at_commit(&e1).is_none());
            let e2 = commit(&mut plane, &e1, 3);
            let job = plane.snapshot_job_at_commit(&e2).unwrap();
            let e3 = commit(&mut plane, &e2, 1);
            drop((job, plane));
            assert!(!dir.has_snapshot(2));
            let out = dir.recover_expecting(&e3);
            assert!(out.wal_records_replayed > replayed_with_snapshot);
            assert_eq!(out.wal_records_replayed, 6, "everything past the boot snapshot");
        }

        // (b) `.tmp` written and synced, rename never happened.
        {
            let (dir, mut plane, e0) = Scratch::open("win-b", 2);
            let e1 = commit(&mut plane, &e0, 2);
            assert!(plane.snapshot_job_at_commit(&e1).is_none());
            let e2 = commit(&mut plane, &e1, 3);
            let mut job = plane.snapshot_job_at_commit(&e2).unwrap();
            job.ticket.rename_lost = true;
            let out = job.run();
            assert!(!out.renamed && out.bytes > 0 && out.error.is_none());
            let e3 = commit(&mut plane, &e2, 1);
            drop(plane);
            assert_eq!(dir.tmp_files(), 1, "the orphaned temp file is what a crash leaves");
            assert!(!dir.has_snapshot(2));
            let out = dir.recover_expecting(&e3);
            assert_eq!(out.snapshots_scanned, 1, "a .tmp is never read as a snapshot");
            assert_eq!(out.wal_records_replayed, 6);
        }

        // (c) The writer was busy when the next snapshot came due, so
        // that one was skipped; then the busy job lands late. It must
        // cover exactly the fence it was taken at, not the plane's
        // newest one — replay resumes right after it.
        {
            let (dir, mut plane, e0) = Scratch::open("win-c", 2);
            let e1 = commit(&mut plane, &e0, 2);
            assert!(plane.snapshot_job_at_commit(&e1).is_none());
            let e2 = commit(&mut plane, &e1, 3);
            let job = plane.snapshot_job_at_commit(&e2).unwrap();
            let e3 = commit(&mut plane, &e2, 1);
            assert!(plane.snapshot_job_at_commit(&e3).is_none());
            let e4 = commit(&mut plane, &e3, 2);
            assert!(plane.snapshot_job_at_commit(&e4).is_none(), "due at epoch 4, writer busy");
            let out = job.run();
            assert!(out.renamed);
            drop(plane); // dies before the job is booked
            assert!(dir.has_snapshot(2) && !dir.has_snapshot(4));
            let out = dir.recover_expecting(&e4);
            assert_eq!(out.wal_records_replayed, 4, "epochs 3 and 4 replay over the late snapshot");
        }
    }

    #[test]
    fn reopening_over_a_snapshot_past_a_torn_wal_keeps_sequence_numbers_monotone() {
        // The log is torn at the epoch-2 fence but serving went on and
        // snapshotted epoch 2: the snapshot covers seq 4, the WAL's
        // valid prefix ends at seq 3.
        let (dir, mut plane, e0) = Scratch::open("past-wal", 1);
        let e1 = commit(&mut plane, &e0, 2);
        plane.append_updates(&[EdgeUpdate::insert(0, 3)]).unwrap();
        let wal_path = dir.dir.join(WAL_FILE);
        let before_fence = fs::metadata(&wal_path).unwrap().len();
        plane.append_commit(2).unwrap();
        let e2 = Arc::new(e1.with_updates(&[EdgeUpdate::insert(0, 3)], usize::MAX).0);
        plane.checkpoint(&e2).unwrap();
        drop(plane);
        OpenOptions::new().write(true).open(&wal_path).unwrap().set_len(before_fence).unwrap();

        // Restart: the snapshot wins, the surviving update record (seq
        // 3 ≤ 4) is not pending again, and the start-up checkpoint and
        // the next commit carry on from seq 4 — not from the prefix.
        let (state, scan) = recover(&dir.dir, *e0.config(), usize::MAX, test_engine).unwrap();
        assert_eq!((state.outcome.epoch, state.outcome.pending_restored), (2, 0));
        let cfg = DurabilityConfig::new(&dir.dir).snapshot_every(1);
        let mut plane = DurabilityPlane::open(cfg, &scan, None, true).unwrap();
        let engine = Arc::new(state.engine);
        plane.checkpoint(&engine).unwrap();
        let e3 = commit(&mut plane, &engine, 1);
        drop(plane);
        let out = dir.recover_expecting(&e3);
        assert_eq!(out.wal_records_replayed, 2, "only the new update record and its fence");
    }

    #[test]
    fn snapshots_that_landed_corrupted_do_not_evict_the_one_recovery_loaded() {
        // The log loses everything up to the epoch-1 fence but serving
        // went on and snapshotted epoch 1: from here on that snapshot is
        // the only bridge over the hole in the WAL.
        let (dir, mut plane, e0) = Scratch::open("anchor", 1);
        let e1 = commit(&mut plane, &e0, 2);
        plane.checkpoint(&e1).unwrap();
        drop(plane);
        File::create(dir.dir.join(WAL_FILE)).unwrap();

        let (state, scan) = recover(&dir.dir, *e0.config(), usize::MAX, test_engine).unwrap();
        assert_eq!(state.outcome.epoch, 1);
        let cfg = DurabilityConfig::new(&dir.dir).snapshot_every(1);
        let keep = cfg.keep_snapshots as u64;
        let mut plane = DurabilityPlane::open(cfg, &scan, None, true).unwrap();
        let mut engine = Arc::new(state.engine);
        plane.checkpoint(&engine).unwrap();
        // `keep` snapshots in a row land bit-flipped under their final
        // names — retention counts them like good ones.
        for round in 0..keep {
            engine = commit(&mut plane, &engine, 1 + round % 3);
            let mut job = plane.snapshot_job_at_commit(&engine).unwrap();
            job.ticket.write = WriteFault::Flip(0x5EED + round);
            let out = job.run();
            assert!(out.renamed);
            plane.finish_snapshot(&out);
        }
        drop(plane);
        assert!(dir.has_snapshot(1), "the snapshot recovery loaded was pruned");
        assert!(!dir.has_snapshot(0), "older ones still are");
        let out = dir.recover_expecting(&engine);
        assert_eq!(out.snapshots_corrupt, keep as usize);
        assert_eq!(out.wal_records_replayed, 2 * keep);
    }

    #[test]
    fn writer_timing_does_not_move_the_fault_rolls_of_the_wal() {
        // Two planes, same fault seed, same commits. On one every job
        // is run and booked before the next commit; on the other the
        // first job is held across the next `cadence + 1` commits — at
        // cadence 3 commits that are not due on the first plane and
        // due-but-busy on the second. The WAL bytes — every append's
        // fault rolls — must not notice.
        let wal_after = |cadence: u64, hold: bool| {
            let tag = format!("rolls-{cadence}-{hold}");
            let dir = std::env::temp_dir().join(format!("cgraph-dur-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let scan = scan_for_start(&dir).unwrap();
            let faults = DiskFaults::new(0xD15C, 0.3, 0.2, 0.2, 0.3);
            let cfg = DurabilityConfig::new(&dir).snapshot_every(cadence);
            let mut plane = DurabilityPlane::open(cfg, &scan, Some(faults), false).unwrap();
            let mut engine = Arc::new(test_engine());
            let mut held = None;
            let mut skipped = 0;
            for round in 0..12u64 {
                engine = commit(&mut plane, &engine, 1 + round % 3);
                let busy = plane.snapshot_in_flight.is_some();
                match plane.snapshot_job_at_commit(&engine) {
                    Some(job) if hold && held.is_none() && skipped == 0 => held = Some(job),
                    Some(job) => plane.finish_snapshot(&job.run()),
                    None => skipped += u64::from(busy),
                }
                if skipped == cadence + 1 {
                    if let Some(job) = held.take() {
                        plane.finish_snapshot(&job.run());
                    }
                }
            }
            assert_eq!(skipped, if hold { cadence + 1 } else { 0 });
            drop(plane);
            let wal = fs::read(dir.join(WAL_FILE)).unwrap();
            let _ = fs::remove_dir_all(&dir);
            wal
        };
        for cadence in [1, 3] {
            assert_eq!(wal_after(cadence, false), wal_after(cadence, true), "cadence {cadence}");
        }
    }

    #[test]
    fn dropping_the_plane_joins_its_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc::channel;
        let (dir, mut plane, e0) = Scratch::open("join", 1);
        let e1 = commit(&mut plane, &e0, 2);
        let job = plane.snapshot_job_at_commit(&e1).unwrap();
        let booked = Arc::new(AtomicBool::new(false));
        let (release_tx, release_rx) = channel::<()>();
        let (dropping_tx, dropping_rx) = channel::<()>();
        let flag = Arc::clone(&booked);
        plane.spawn_writer(job, move |out| {
            // Held back until the drop below is under way.
            release_rx.recv().unwrap();
            assert!(out.renamed);
            flag.store(true, Ordering::SeqCst);
        });
        let releaser = std::thread::spawn(move || {
            dropping_rx.recv().unwrap();
            release_tx.send(()).unwrap();
        });
        dropping_tx.send(()).unwrap();
        drop(plane);
        assert!(booked.load(Ordering::SeqCst), "drop returned while the writer was still running");
        assert!(dir.has_snapshot(1));
        releaser.join().unwrap();
    }

    #[test]
    fn writer_that_outlives_every_other_owner_does_not_join_itself() {
        use std::sync::mpsc::channel;
        use std::sync::Mutex;
        let (_dir, mut plane, e0) = Scratch::open("selfjoin", 1);
        let e1 = commit(&mut plane, &e0, 2);
        let job = plane.snapshot_job_at_commit(&e1).unwrap();
        let holder: Arc<Mutex<Option<DurabilityPlane>>> = Arc::new(Mutex::new(None));
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<()>();
        let writers_ref = Arc::clone(&holder);
        plane.spawn_writer(job, move |_out| {
            release_rx.recv().unwrap();
            drop(writers_ref); // the last reference: the plane drops on this thread
            done_tx.send(()).unwrap();
        });
        *holder.lock().unwrap() = Some(plane);
        drop(holder);
        release_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the writer dropped its own plane without deadlocking or panicking");
    }

    #[test]
    fn wal_append_and_recover_round_trip() {
        let dir = std::env::temp_dir().join(format!("cgraph-dur-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let cfg = DurabilityConfig::new(&dir).snapshot_every(1);
        let scan = scan_dir(&dir).unwrap();
        let mut plane = DurabilityPlane::open(cfg.clone(), &scan, None, false).unwrap();
        let engine = Arc::new(test_engine());
        plane.checkpoint(&engine).unwrap();
        plane.append_updates(&[EdgeUpdate::insert(0, 2)]).unwrap();
        plane.append_commit(1).unwrap();
        plane.append_updates(&[EdgeUpdate::delete(0, 2)]).unwrap();
        drop(plane);

        let (state, _scan) =
            recover(&dir, *engine.config(), usize::MAX, || unreachable!("snapshot exists"))
                .unwrap();
        assert_eq!(state.engine.graph_epoch(), 1, "one commit replayed");
        assert_eq!(state.pending, vec![EdgeUpdate::delete(0, 2)], "uncommitted tail restored");
        assert!(state.outcome.recovered);
        assert_eq!(state.outcome.epoch, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_valid_one() {
        let dir = std::env::temp_dir().join(format!("cgraph-dur-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let engine = test_engine();
        let good = encode_snapshot(&snapshot_of(&engine, 0));
        fs::write(snapshot_path(&dir, 0), &good).unwrap();
        // A newer snapshot, torn mid-file: must be skipped whole.
        let (newer, _) = engine.with_updates(&[EdgeUpdate::insert(0, 2)], usize::MAX);
        let torn = encode_snapshot(&snapshot_of(&newer, 2));
        fs::write(snapshot_path(&dir, 1), &torn[..torn.len() / 2]).unwrap();

        let (state, scan) =
            recover(&dir, *engine.config(), usize::MAX, || unreachable!("valid snapshot exists"))
                .unwrap();
        assert_eq!(scan.corrupt, 1);
        assert_eq!(state.outcome.snapshots_corrupt, 1);
        assert_eq!(state.outcome.snapshots_scanned, 2);
        assert_eq!(state.engine.graph_epoch(), 0, "fell back to the valid epoch");
        let _ = fs::remove_dir_all(&dir);
    }
}
