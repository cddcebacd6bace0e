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
//! * at a configurable commit cadence the engine value is written as a
//!   **snapshot** (temp file + atomic rename + directory fsync, every
//!   frame CRC-checksummed, see [`cgraph_graph::snapshot`]). The first
//!   snapshot over a base graph — at start-up, after a fold or a
//!   degradation — is a *full* one: base adjacency, live delta
//!   overlays, partition boundaries, epoch. Every later one over the
//!   same base is an *overlay* snapshot: the delta overlays and the
//!   epoch, plus a content-bound reference to the full snapshot whose
//!   base rows it rests on. A snapshot only bounds how much WAL a
//!   restart replays — an acknowledged commit rests on its fsynced
//!   fence alone — so the commit merely *takes* a `SnapshotJob` under
//!   its locks and the plane's writer thread does the encoding and the
//!   file work beside the readers;
//! * [`QueryService::open_or_recover`](crate::QueryService::open_or_recover)
//!   rebuilds the newest *valid* snapshot (torn or bit-flipped tips
//!   are detected by checksum and skipped; an overlay snapshot is valid
//!   only over an intact copy of the full snapshot it names), replays
//!   the WAL tail past the snapshot's sequence number commit by commit,
//!   restores any uncommitted logged updates into the pending buffer,
//!   and resumes serving at the recovered epoch.
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
use crate::engine::{BaseId, DistributedEngine};
use crate::partition::RangePartition;
use cgraph_graph::snapshot::{
    decode_overlay_snapshot, decode_snapshot, decode_snapshot_header, decode_wal,
    encode_overlay_snapshot, encode_snapshot, encode_wal_record, full_snapshot_ref, DiskFaults,
    OverlayRows, OverlaySnapshot, PartitionData, SnapshotData, SnapshotHeader, SnapshotRef,
    SnapshotTicket, WalRecord, WeightedRows,
};
use cgraph_graph::types::VertexRange;
use cgraph_graph::{DeltaOverlay, EdgeUpdate, SortedRows};
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
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
    /// recovered from, which stays besides, and the full snapshot any
    /// retained overlay snapshot rests on. Must be at least 1.
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
    /// The full snapshots among `snapshots_written`: the ones that
    /// carry base rows (start-up, and the first snapshot after a fold
    /// or a degradation); the rest are overlay snapshots.
    pub full_snapshots_written: u64,
    /// Bytes of encoded snapshot data written.
    pub snapshot_bytes: u64,
    /// WAL records replayed during recovery.
    pub wal_replayed: u64,
    /// Snapshot files rejected during recovery (failed checksum,
    /// truncation, bad magic, or an overlay snapshot whose full
    /// snapshot is missing, corrupt or another one) before a valid one
    /// was found.
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
        let OverlayRows { inserts, deletes } = overlay_rows(engine, m);
        partitions.push(PartitionData {
            base_rows,
            delta_inserts: inserts,
            delta_deletes: deletes,
        });
    }
    SnapshotData {
        epoch: engine.graph_epoch(),
        last_seq,
        num_vertices: engine.num_vertices(),
        ranges: ranges_of(engine),
        partitions,
    }
}

/// Captures `engine`'s delta overlays as an overlay snapshot covering
/// WAL records up to and including `last_seq`, resting on `base` — the
/// full snapshot `engine`'s base rows are on disk as. Rows are emitted
/// in vertex order, as [`snapshot_of`] emits them.
pub fn overlay_snapshot_of(
    engine: &DistributedEngine,
    last_seq: u64,
    base: SnapshotRef,
) -> OverlaySnapshot {
    OverlaySnapshot {
        epoch: engine.graph_epoch(),
        last_seq,
        num_vertices: engine.num_vertices(),
        ranges: ranges_of(engine),
        base,
        partitions: (0..engine.num_machines()).map(|m| overlay_rows(engine, m)).collect(),
    }
}

fn ranges_of(engine: &DistributedEngine) -> Vec<(u64, u64)> {
    engine.partition().ranges().iter().map(|r| (r.start, r.end)).collect()
}

/// Machine `m`'s live overlay rows, sources ascending.
fn overlay_rows(engine: &DistributedEngine, m: usize) -> OverlayRows {
    let mut out = OverlayRows::default();
    if let Some(d) = engine.delta(m) {
        let mut rows: Vec<_> = d.rows().collect();
        rows.sort_by_key(|&(v, _)| v);
        for (v, row) in rows {
            if !row.inserts().is_empty() {
                out.inserts.push_row(v, row.inserts());
            }
            if !row.deletes().is_empty() {
                out.deletes.push((v, row.deletes().to_vec()));
            }
        }
    }
    out
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
    // Each machine's shard is built from its own persisted rows, which
    // are stored sorted: one row per vertex that has out-edges, sources
    // ascending within the machine's range (`decode_snapshot` checks).
    let machine_rows = (0..snap.ranges.len()).map(|m| {
        let (start, end) = snap.ranges[m];
        let persisted = &snap.partitions[m].base_rows;
        let mut rows =
            SortedRows::with_capacity(VertexRange::new(start, end), persisted.num_edges());
        let mut persisted = persisted.iter().peekable();
        for v in start..end {
            if let Some((_, row)) = persisted.next_if(|&(src, _)| src == v) {
                for &(t, w) in row {
                    rows.push(t, w);
                }
            }
            rows.end_row();
        }
        assert!(persisted.next().is_none(), "a persisted row outside machine {m}'s range");
        rows
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
    DistributedEngine::restored(machine_rows, partition, overlays, snap.epoch, config)
}

/// One valid snapshot file found during the recovery scan.
struct ScannedSnapshot {
    /// Its state — for an overlay snapshot, over its full snapshot's
    /// base rows.
    data: SnapshotData,
    /// The full snapshot holding those base rows (the file itself when
    /// it is a full one).
    full: SnapshotRef,
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
/// snapshot whose every frame checksums — for an overlay snapshot, and
/// every frame of the full snapshot it names. Corrupt snapshots are
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
        match load_snapshot(dir, &path)? {
            Some(found) => {
                snapshot = Some(found);
                break;
            }
            None => corrupt += 1,
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

/// Reads the snapshot file at `path` whole: a full snapshot as it is,
/// an overlay snapshot over the base rows of the full snapshot it
/// names, which must be on disk, decode, and match the reference.
/// `None` when either file fails.
fn load_snapshot(dir: &Path, path: &Path) -> Result<Option<ScannedSnapshot>, DurabilityError> {
    let bytes = fs::read(path)?;
    let Ok(header) = decode_snapshot_header(&bytes) else { return Ok(None) };
    let Some(base) = header.base else {
        let found = decode_snapshot(&bytes).ok().zip(full_snapshot_ref(&bytes).ok());
        return Ok(found.map(|(data, full)| ScannedSnapshot { data, full }));
    };
    let Ok(overlay) = decode_overlay_snapshot(&bytes) else { return Ok(None) };
    drop(bytes);
    let full_bytes = match fs::read(snapshot_path(dir, base.epoch)) {
        Ok(b) => b,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    Ok(overlay.over(&full_bytes).ok().map(|data| ScannedSnapshot { data, full: base }))
}

/// The full snapshot an engine value's base graph is on disk as: the
/// base (named weakly, see [`BaseId`]) and the file.
#[derive(Clone, Debug)]
pub(crate) struct BaseOnDisk {
    base: BaseId,
    file: SnapshotRef,
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
    /// The full snapshot whose base rows recovery loaded — still
    /// `engine`'s base unless a replayed commit folded.
    pub base_on_disk: Option<BaseOnDisk>,
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
    let base_on_disk =
        scan.snapshot.as_ref().map(|s| BaseOnDisk { base: engine.base_id(), file: s.full });
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
    Ok((RecoveredState { engine, pending, outcome, base_on_disk }, scan))
}

/// One snapshot write, taken from the plane under its mutex and run
/// without it: the engine value the commit just published, the WAL
/// sequence number it covers, which kind of file it writes, where the
/// file goes, and the fault decisions already drawn for it (so the
/// thread that runs the job cannot reorder the fault schedule against
/// the WAL appends).
pub(crate) struct SnapshotJob {
    engine: Arc<DistributedEngine>,
    last_seq: u64,
    /// The full snapshot `engine`'s base is on disk as: `Some` writes an
    /// overlay snapshot resting on it, `None` a full snapshot.
    base: Option<SnapshotRef>,
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
    /// For a full snapshot: the base it wrote and the file, booked by
    /// [`DurabilityPlane::finish_snapshot`] when `renamed`.
    pub(crate) full: Option<BaseOnDisk>,
    /// Capturing and encoding the engine value.
    pub(crate) encode: Duration,
    /// Temp-file write, fsync, rename, directory fsync and prune.
    pub(crate) write: Duration,
    /// The I/O failure that cut the job short, if any.
    pub(crate) error: Option<DurabilityError>,
}

impl SnapshotJob {
    /// Encode, (maybe) mangle, write to `.tmp`, sync, atomic rename,
    /// sync the directory, prune old snapshots. Takes no lock and
    /// touches no counter; the engine value and the encoded bytes are
    /// released when this returns.
    pub(crate) fn run(self) -> SnapshotOutcome {
        let started = Instant::now();
        let (mut bytes, full) = match self.base {
            Some(base) => {
                let overlay = overlay_snapshot_of(&self.engine, self.last_seq, base);
                (encode_overlay_snapshot(&overlay), None)
            }
            None => {
                let bytes = encode_snapshot(&snapshot_of(&self.engine, self.last_seq));
                let file = full_snapshot_ref(&bytes).expect("a fresh encoding has its frames");
                (bytes, Some(BaseOnDisk { base: self.engine.base_id(), file }))
            }
        };
        self.ticket.write.apply(&mut bytes);
        let mut out = SnapshotOutcome {
            epoch: self.engine.graph_epoch(),
            bytes: 0,
            renamed: false,
            full,
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
            // The rename is durable once the directory is: until then a
            // power loss can undo it, so the job is not booked before.
            sync_dir(&self.dir)?;
            out.renamed = true;
            let pinned = [self.keep_epoch, self.base.map(|b| b.epoch)];
            prune(&self.dir, self.keep_snapshots, pinned.iter().flatten().copied())?;
        }
        Ok(())
    }
}

/// Fsyncs directory `dir`, making the renames and unlinks in it durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Removes all but the newest `keep` snapshot files, plus any stale
/// `.tmp` leftovers (one job is in flight at a time, so no `.tmp` seen
/// here belongs to a live write). The snapshots of the `pinned` epochs
/// stay whatever their age: the one recovery loaded, and the full
/// snapshot the job that prunes rests on. Retention goes by file name,
/// a write that landed corrupted counts like a good one, and `keep` of
/// those in a row would otherwise push out the last snapshot known to
/// decode; when that one lies past a hole in the WAL (the log was torn
/// and serving went on) nothing older can stand in for it. Every full
/// snapshot a retained overlay snapshot rests on is retained too — its
/// header frame names it. The directory is fsynced after any unlink.
fn prune(
    dir: &Path,
    keep: usize,
    pinned: impl IntoIterator<Item = u64>,
) -> Result<(), DurabilityError> {
    let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
    let mut removed = false;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            removed |= fs::remove_file(entry.path()).is_ok();
        } else if let Some(epoch) = snapshot_epoch(&name) {
            snaps.push((epoch, entry.path()));
        }
    }
    snaps.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    let mut retained: Vec<u64> = snaps.iter().take(keep.max(1)).map(|&(e, _)| e).collect();
    retained.extend(pinned);
    let bases: Vec<u64> = snaps
        .iter()
        .filter(|(epoch, _)| retained.contains(epoch))
        .filter_map(|(_, path)| read_header(path)?.base.map(|b| b.epoch))
        .collect();
    retained.extend(bases);
    for (epoch, path) in snaps {
        if !retained.contains(&epoch) {
            removed |= fs::remove_file(path).is_ok();
        }
    }
    if removed {
        sync_dir(dir)?;
    }
    Ok(())
}

/// The header frame of the snapshot file at `path`, read alone; `None`
/// when it cannot be read or does not decode.
fn read_header(path: &Path) -> Option<SnapshotHeader> {
    let mut f = File::open(path).ok()?;
    let mut frame = vec![0u8; 8];
    f.read_exact(&mut frame).ok()?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("a four-byte length"));
    f.take(u64::from(len)).read_to_end(&mut frame).ok()?;
    decode_snapshot_header(&frame).ok()
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
    /// process knows to be valid. Pruning never removes it, nor the
    /// full snapshot it rests on — see [`prune`].
    recovered_snapshot_epoch: Option<u64>,
    /// The full snapshot on disk of the base last written whole (or
    /// loaded by recovery). A job over an engine value with that base
    /// writes an overlay snapshot resting on it; any other writes a
    /// full one.
    base_on_disk: Option<BaseOnDisk>,
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
            base_on_disk: None,
            writer: None,
        })
    }

    /// Lifetime counters (includes recovery-time counts).
    pub(crate) fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Adds recovery-time replay counts and books the full snapshot
    /// whose base rows recovery loaded (recovery happens before the
    /// plane exists, so its state is folded in afterwards). Unless a
    /// replayed commit folded, the recovered engine still scans that
    /// base, so the start-up checkpoint can rest an overlay snapshot on
    /// it.
    pub(crate) fn note_recovery(&mut self, state: &RecoveredState) {
        self.stats.wal_replayed += state.outcome.wal_records_replayed;
        self.base_on_disk = state.base_on_disk.clone();
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
    /// sync covers every update record logged before it). Returns
    /// `(seq, bytes_appended, sync_wall_time)`.
    pub(crate) fn append_commit(
        &mut self,
        epoch: u64,
    ) -> Result<(u64, u64, Duration), DurabilityError> {
        let (seq, bytes) = self.append(WalRecord::Commit { seq: self.next_seq, epoch })?;
        self.last_committed_seq = seq;
        let started = Instant::now();
        self.wal.sync_all()?;
        Ok((seq, bytes, started.elapsed()))
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
    /// not been booked. The job writes an overlay snapshot when
    /// `engine`'s base is on disk as a booked full snapshot, a full
    /// snapshot otherwise — at start-up, after a fold or a degradation,
    /// and after a full write that failed or lost its rename.
    pub(crate) fn take_snapshot_job(
        &mut self,
        engine: &Arc<DistributedEngine>,
        ticket: SnapshotTicket,
    ) -> Option<SnapshotJob> {
        if self.snapshot_in_flight.is_some() {
            return None;
        }
        self.snapshot_in_flight = Some(self.commits_since_snapshot);
        let base = self.base_on_disk.as_ref().filter(|b| b.base.is_base_of(engine));
        Some(SnapshotJob {
            engine: Arc::clone(engine),
            last_seq: self.last_committed_seq,
            base: base.map(|b| b.file),
            dir: self.cfg.dir.clone(),
            keep_snapshots: self.cfg.keep_snapshots,
            keep_epoch: self.recovered_snapshot_epoch,
            ticket,
        })
    }

    /// Books a finished job: byte and snapshot counters, the newest
    /// snapshot epoch, the cadence reset and — for a full snapshot —
    /// the base it puts on disk move together, and the plane accepts
    /// the next job. The cadence restarts from the snapshotted epoch —
    /// commits that landed while the file was being written still count
    /// towards the next snapshot, so the replay a restart faces stays
    /// bounded by the cadence, not by the cadence plus a write. A failed
    /// or rename-lost write resets nothing and books no base — the WAL
    /// alone recovers the epoch, and the next commit retries (a full
    /// one, when the lost write was full).
    pub(crate) fn finish_snapshot(&mut self, out: &SnapshotOutcome) {
        let at_take = self.snapshot_in_flight.take().unwrap_or(0);
        self.stats.snapshot_bytes += out.bytes;
        if out.renamed {
            self.stats.snapshots_written += 1;
            self.stats.last_snapshot_epoch = out.epoch;
            self.commits_since_snapshot -= at_take;
            if let Some(full) = &out.full {
                self.stats.full_snapshots_written += 1;
                self.base_on_disk = Some(full.clone());
            }
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
    /// that is not due, so every later roll falls where it fell. After
    /// a replay that did not fold, the checkpoint is an overlay
    /// snapshot over the full snapshot recovery loaded the base from.
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
                match e.delta(m).and_then(|d| d.row(v)) {
                    Some(r) => r.merge(base).collect(),
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
        // the only bridge over the hole in the WAL. Epoch 1 folds, so
        // that snapshot is a full one and epoch 0's is the next to go;
        // `an_overlay_anchor_keeps_its_full_snapshot` runs the other
        // kind.
        let (dir, mut plane, e0) = Scratch::open("anchor", 1);
        let updates = [EdgeUpdate::insert(0, 2)];
        plane.append_updates(&updates).unwrap();
        plane.append_commit(1).unwrap();
        let e1 = Arc::new(e0.with_updates(&updates, 0).0);
        plane.checkpoint(&e1).unwrap();
        assert_eq!(plane.stats().full_snapshots_written, 2, "a fold puts a new base on disk");
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
    fn an_overlay_anchor_keeps_its_full_snapshot() {
        // As above, but epoch 1 is an overlay snapshot over epoch 0's
        // full one: the bridge is the pair, and pruning keeps both
        // while the corrupted writes — a full one, then overlays resting
        // on it — pile up past them.
        let (dir, mut plane, e0) = Scratch::open("anchor-overlay", 1);
        let e1 = commit(&mut plane, &e0, 2);
        plane.checkpoint(&e1).unwrap();
        assert_eq!(plane.stats().full_snapshots_written, 1, "epoch 1 rests on epoch 0");
        drop(plane);
        File::create(dir.dir.join(WAL_FILE)).unwrap();

        let (state, scan) = recover(&dir.dir, *e0.config(), usize::MAX, test_engine).unwrap();
        assert_eq!(state.outcome.epoch, 1);
        let cfg = DurabilityConfig::new(&dir.dir).snapshot_every(1);
        let keep = cfg.keep_snapshots as u64;
        let mut plane = DurabilityPlane::open(cfg, &scan, None, true).unwrap();
        let mut engine = Arc::new(state.engine);
        for round in 0..2 * keep {
            engine = commit(&mut plane, &engine, 1 + round % 3);
            let mut job = plane.snapshot_job_at_commit(&engine).unwrap();
            job.ticket.write = WriteFault::Flip(0x5EED + round);
            plane.finish_snapshot(&job.run());
        }
        drop(plane);
        assert!(dir.has_snapshot(1) && dir.has_snapshot(0), "the anchor or its base was pruned");
        assert!(dir.has_snapshot(2), "the full snapshot the retained overlays rest on was pruned");
        assert!(!dir.has_snapshot(3), "older overlay snapshots are not kept");
        let out = dir.recover_expecting(&engine);
        assert_eq!(out.snapshots_corrupt, keep as usize + 1, "the newest three and their base");
        assert_eq!(out.wal_records_replayed, 4 * keep);
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
