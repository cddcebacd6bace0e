//! On-disk codecs of the durability plane: checksummed epoch snapshots
//! and the update write-ahead log (WAL).
//!
//! This module is pure bytes — no filesystem access, no threads — so
//! the formats can be property-tested in isolation and reused by any
//! I/O layer. The durability plane in `cgraph-core` owns the files;
//! this module owns what is *in* them.
//!
//! # Frame format
//!
//! Both the snapshot and the WAL are sequences of **frames**:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. A reader stops at the
//! first frame whose length runs past the buffer or whose checksum
//! fails — a torn tail is detected, never parsed. That single rule is
//! what makes `kill -9` mid-append safe: the prefix of intact frames
//! is exactly the committed history.
//!
//! # Snapshot layout
//!
//! A snapshot file comes in two kinds, told apart by the tag of its
//! header frame. Each is a header frame, one frame per partition, and a
//! terminal `END` frame (so truncation *between* frames is detectable
//! too — a snapshot without its END frame is torn and rejected whole).
//!
//! A **full** snapshot holds the whole engine value:
//!
//! ```text
//! frame 0   : HEADER  magic, version, epoch, last WAL seq covered,
//!             num_vertices, partition ranges
//! frame 1..p: PARTITION  base out-adjacency rows + delta-overlay rows
//! frame p+1 : END
//! ```
//!
//! An **overlay** snapshot holds only the delta overlays, and names the
//! full snapshot whose base rows it rests on:
//!
//! ```text
//! frame 0   : OVERLAY_HEADER  magic, version, epoch, last WAL seq
//!             covered, num_vertices, partition ranges, then the base
//!             reference: the full snapshot's epoch, its last WAL seq
//!             and its digest
//! frame 1..p: OVERLAY_PARTITION  delta-overlay rows
//! frame p+1 : END
//! ```
//!
//! The digest ([`SnapshotRef::digest`]) is the CRC-32 of the full
//! snapshot's frame checksums in file order, so it covers every byte of
//! that file: a full snapshot rewritten under the same name — same
//! epoch, even the same sequence number, other rows — does not match a
//! reference taken to the old one ([`OverlaySnapshot::over`]).
//!
//! # WAL records
//!
//! Each WAL frame carries one record: `Updates { seq, updates }`
//! (buffered edge updates, appended *before* they are applied) or
//! `Commit { seq, epoch }` (an epoch-commit fence). Sequence numbers
//! are strictly increasing, so replay is idempotent — a record at or
//! below a snapshot's covered sequence number is skipped.

use crate::delta::EdgeUpdate;
use crate::types::{VertexId, Weight};
use std::sync::atomic::{AtomicU64, Ordering};

/// Current snapshot format version (bumped on layout changes).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic prefix of a snapshot header frame.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CGSNAP01";

const TAG_HEADER: u8 = 1;
const TAG_PARTITION: u8 = 2;
const TAG_END: u8 = 3;
const TAG_OVERLAY_HEADER: u8 = 4;
const TAG_OVERLAY_PARTITION: u8 = 5;

const TAG_WAL_UPDATES: u8 = 1;
const TAG_WAL_COMMIT: u8 = 2;

/// Why a snapshot or WAL buffer failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A frame's checksum failed or its length ran past the buffer —
    /// the data is torn or corrupt at the reported byte offset.
    Corrupt(usize),
    /// The payload decoded but violated the format (bad magic, version
    /// skew, missing END frame, truncated field).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(at) => write!(f, "checksum failure or torn frame at byte {at}"),
            CodecError::Malformed(what) => write!(f, "malformed durability data: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// CRC-32 (IEEE), slice-by-8 tables — no external dependencies.
// ---------------------------------------------------------------------

/// `T[0]` is the classic byte-at-a-time table; `T[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which is what lets
/// eight input bytes be folded with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 of `bytes` (the checksum every frame carries), eight
/// bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Appends one frame whose payload `fill` writes straight into `out`:
/// the header is reserved first and patched once the payload's length
/// and checksum are known, so the payload is never staged elsewhere.
fn write_frame_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    fill(out);
    let len = (out.len() - at - 8) as u32;
    let crc = crc32(&out[at + 8..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends one `[len][crc][payload]` frame to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame_with(out, |o| o.extend_from_slice(payload));
}

/// Reads the frame starting at `*pos`, advancing `*pos` past it.
/// Returns `None` on a torn tail (short header, length past the
/// buffer, or checksum mismatch) — the caller must not read further.
pub fn read_frame<'a>(data: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let start = *pos;
    if data.len() - start < 8 {
        return None;
    }
    let len = u32::from_le_bytes(data[start..start + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[start + 4..start + 8].try_into().unwrap());
    let body_start = start + 8;
    if data.len() - body_start < len {
        return None;
    }
    let payload = &data[body_start..body_start + len];
    if crc32(payload) != crc {
        return None;
    }
    *pos = body_start + len;
    Some(payload)
}

// Little-endian primitive helpers over a cursor.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.data.len() - self.pos < n {
            return Err(CodecError::Malformed(format!(
                "field of {n} bytes runs past payload end ({} of {})",
                self.pos,
                self.data.len()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

// ---------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------

/// Weighted adjacency rows as persisted: `(source, sorted
/// [(dst, weight)])`, non-empty rows only, sources ascending. Stored
/// flat — one edge array plus one end offset per row — so capturing or
/// decoding a whole partition allocates three vectors, not one per
/// vertex.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WeightedRows {
    srcs: Vec<VertexId>,
    /// `ends[i]` is one past row `i`'s last entry in `edges`; row `i`
    /// starts where row `i − 1` ends.
    ends: Vec<usize>,
    edges: Vec<(VertexId, Weight)>,
}

impl WeightedRows {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// No rows yet, with room for `rows` rows holding `edges` edges.
    pub fn with_capacity(rows: usize, edges: usize) -> Self {
        Self {
            srcs: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Edges over all rows.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Appends `src`'s row.
    pub fn push_row(&mut self, src: VertexId, row: &[(VertexId, Weight)]) {
        self.edges.extend_from_slice(row);
        self.srcs.push(src);
        self.ends.push(self.edges.len());
    }

    /// `(source, row)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[(VertexId, Weight)])> + '_ {
        let mut start = 0;
        self.srcs.iter().zip(&self.ends).map(move |(&src, &end)| {
            let row = &self.edges[start..end];
            start = end;
            (src, row)
        })
    }

    /// Bytes [`encode_weighted_rows`] writes for these rows.
    fn encoded_len(&self) -> usize {
        8 + 12 * self.srcs.len() + 12 * self.edges.len()
    }
}

/// One partition's persisted state: the base out-adjacency (only
/// non-empty rows, sorted destinations with weights) plus the live
/// delta-overlay rows (inserted edges and deleted destinations).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionData {
    /// Base out-edges: `(source, sorted [(dst, weight)])`, non-empty
    /// rows only, sources ascending.
    pub base_rows: WeightedRows,
    /// Delta-overlay insert rows: `(source, sorted [(dst, weight)])`.
    pub delta_inserts: WeightedRows,
    /// Delta-overlay delete rows: `(source, sorted [dst])`.
    pub delta_deletes: Vec<(VertexId, Vec<VertexId>)>,
}

/// A fully decoded epoch snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotData {
    /// The committed graph epoch this snapshot captures.
    pub epoch: u64,
    /// Highest WAL sequence number whose effects the snapshot already
    /// contains; replay skips records at or below it.
    pub last_seq: u64,
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// Contiguous `[start, end)` vertex range of each partition.
    pub ranges: Vec<(u64, u64)>,
    /// Per-partition base + delta state, one entry per range.
    pub partitions: Vec<PartitionData>,
}

/// Names one full snapshot by its content: what an overlay snapshot
/// carries to say which base rows it rests on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotRef {
    /// The full snapshot's epoch (its file is named after it).
    pub epoch: u64,
    /// The full snapshot's covered WAL sequence number.
    pub last_seq: u64,
    /// CRC-32 of the full snapshot's frame checksums, header first.
    pub digest: u32,
}

/// One partition's live delta-overlay rows, as an overlay snapshot
/// persists them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverlayRows {
    /// Insert rows: `(source, sorted [(dst, weight)])`.
    pub inserts: WeightedRows,
    /// Delete rows: `(source, sorted [dst])`.
    pub deletes: Vec<(VertexId, Vec<VertexId>)>,
}

/// A decoded overlay snapshot: one epoch's delta overlays over the base
/// rows of the full snapshot `base` names.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlaySnapshot {
    /// The committed graph epoch this snapshot captures.
    pub epoch: u64,
    /// Highest WAL sequence number whose effects the snapshot contains.
    pub last_seq: u64,
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// Contiguous `[start, end)` vertex range of each partition.
    pub ranges: Vec<(u64, u64)>,
    /// The full snapshot whose base rows these overlays apply to.
    pub base: SnapshotRef,
    /// Per-partition overlay rows, one entry per range.
    pub partitions: Vec<OverlayRows>,
}

/// What a snapshot file's header frame says: enough to tell the two
/// kinds apart, and — for an overlay snapshot — which full snapshot it
/// rests on, without reading past the first frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The epoch the file captures.
    pub epoch: u64,
    /// The WAL sequence number it covers.
    pub last_seq: u64,
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// Contiguous `[start, end)` vertex range of each partition.
    pub ranges: Vec<(u64, u64)>,
    /// `None` for a full snapshot; the full snapshot an overlay
    /// snapshot rests on otherwise.
    pub base: Option<SnapshotRef>,
}

impl OverlaySnapshot {
    /// The snapshot this overlay snapshot makes over `full_bytes` — the
    /// encoded full snapshot it names: that file's base rows under this
    /// file's overlays, epoch and covered sequence number. Fails when
    /// `full_bytes` does not decode, or is not the snapshot `base`
    /// names (another epoch, sequence number or digest), or disagrees
    /// on the vertex count or the partitioning.
    pub fn over(self, full_bytes: &[u8]) -> Result<SnapshotData, CodecError> {
        let mut full = decode_snapshot(full_bytes)?;
        if full_snapshot_ref(full_bytes)? != self.base {
            return Err(CodecError::Malformed(format!(
                "overlay snapshot of epoch {} rests on another full snapshot of epoch {}",
                self.epoch, self.base.epoch
            )));
        }
        if full.num_vertices != self.num_vertices || full.ranges != self.ranges {
            return Err(CodecError::Malformed(
                "overlay snapshot and its full snapshot partition the graph differently".into(),
            ));
        }
        for (part, rows) in full.partitions.iter_mut().zip(self.partitions) {
            part.delta_inserts = rows.inserts;
            part.delta_deletes = rows.deletes;
        }
        full.epoch = self.epoch;
        full.last_seq = self.last_seq;
        Ok(full)
    }
}

fn encode_weighted_rows(out: &mut Vec<u8>, rows: &WeightedRows) {
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for (src, edges) in rows.iter() {
        out.extend_from_slice(&src.to_le_bytes());
        out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
        for &(dst, w) in edges {
            let mut rec = [0u8; 12];
            rec[..8].copy_from_slice(&dst.to_le_bytes());
            rec[8..].copy_from_slice(&w.to_bits().to_le_bytes());
            out.extend_from_slice(&rec);
        }
    }
}

fn decode_weighted_rows(r: &mut Reader<'_>) -> Result<WeightedRows, CodecError> {
    let n = r.u64()? as usize;
    let mut rows = WeightedRows::new();
    rows.srcs.reserve(n.min(1 << 20));
    rows.ends.reserve(n.min(1 << 20));
    for _ in 0..n {
        let src = r.u64()?;
        let deg = r.u32()? as usize;
        // One bounds check per row; it also caps what a corrupt degree
        // can make the edge array grow by.
        let body = r.bytes(deg.saturating_mul(12))?;
        rows.edges.extend(body.chunks_exact(12).map(|c| {
            let dst = u64::from_le_bytes(c[..8].try_into().unwrap());
            let w = f32::from_bits(u32::from_le_bytes(c[8..].try_into().unwrap()));
            (dst, w)
        }));
        rows.srcs.push(src);
        rows.ends.push(rows.edges.len());
    }
    Ok(rows)
}

/// Bytes [`encode_deletes`] writes for `deletes`.
fn deletes_len(deletes: &[(VertexId, Vec<VertexId>)]) -> usize {
    8 + deletes.iter().map(|(_, d)| 12 + 8 * d.len()).sum::<usize>()
}

fn encode_deletes(out: &mut Vec<u8>, deletes: &[(VertexId, Vec<VertexId>)]) {
    out.extend_from_slice(&(deletes.len() as u64).to_le_bytes());
    for (src, dels) in deletes {
        out.extend_from_slice(&src.to_le_bytes());
        out.extend_from_slice(&(dels.len() as u32).to_le_bytes());
        for d in dels {
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn decode_deletes(r: &mut Reader<'_>) -> Result<Vec<(VertexId, Vec<VertexId>)>, CodecError> {
    let nd = r.u64()? as usize;
    let mut deletes = Vec::with_capacity(nd.min(1 << 20));
    for _ in 0..nd {
        let src = r.u64()?;
        let k = r.u32()? as usize;
        let mut dels = Vec::with_capacity(k.min(1 << 20));
        for _ in 0..k {
            dels.push(r.u64()?);
        }
        deletes.push((src, dels));
    }
    Ok(deletes)
}

/// Bytes [`encode_header`] writes for `p` partitions.
fn header_len(p: usize, base: Option<&SnapshotRef>) -> usize {
    1 + 8 + 4 + 8 + 8 + 8 + 4 + 16 * p + base.map_or(0, |_| 8 + 8 + 4)
}

/// The header frame's payload: the full kind without `base`, the
/// overlay kind with it.
fn encode_header(
    out: &mut Vec<u8>,
    epoch: u64,
    last_seq: u64,
    num_vertices: u64,
    ranges: &[(u64, u64)],
    base: Option<&SnapshotRef>,
) {
    out.push(if base.is_some() { TAG_OVERLAY_HEADER } else { TAG_HEADER });
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&last_seq.to_le_bytes());
    out.extend_from_slice(&num_vertices.to_le_bytes());
    out.extend_from_slice(&(ranges.len() as u32).to_le_bytes());
    for &(start, end) in ranges {
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&end.to_le_bytes());
    }
    if let Some(b) = base {
        out.extend_from_slice(&b.epoch.to_le_bytes());
        out.extend_from_slice(&b.last_seq.to_le_bytes());
        out.extend_from_slice(&b.digest.to_le_bytes());
    }
}

/// Reads and checks the header frame at `*pos`, advancing past it.
fn read_header(data: &[u8], pos: &mut usize) -> Result<SnapshotHeader, CodecError> {
    let frame = read_frame(data, pos).ok_or(CodecError::Corrupt(0))?;
    let mut r = Reader::new(frame);
    let overlay = match r.u8()? {
        TAG_HEADER => false,
        TAG_OVERLAY_HEADER => true,
        _ => return Err(CodecError::Malformed("first frame is not a snapshot header".into())),
    };
    if r.bytes(8)? != SNAPSHOT_MAGIC {
        return Err(CodecError::Malformed("bad snapshot magic".into()));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(CodecError::Malformed(format!(
            "snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
        )));
    }
    let epoch = r.u64()?;
    let last_seq = r.u64()?;
    let num_vertices = r.u64()?;
    let p = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(p.min(1 << 16));
    for _ in 0..p {
        let start = r.u64()?;
        let end = r.u64()?;
        ranges.push((start, end));
    }
    let base = if overlay {
        Some(SnapshotRef { epoch: r.u64()?, last_seq: r.u64()?, digest: r.u32()? })
    } else {
        None
    };
    if !r.done() {
        return Err(CodecError::Malformed("trailing bytes in snapshot header".into()));
    }
    Ok(SnapshotHeader { epoch, last_seq, num_vertices, ranges, base })
}

/// Decodes the header frame that opens `data` — a whole snapshot file,
/// or just its first frame — without reading any further frame.
pub fn decode_snapshot_header(data: &[u8]) -> Result<SnapshotHeader, CodecError> {
    read_header(data, &mut 0)
}

/// The reference an overlay snapshot resting on the full snapshot
/// encoded in `data` carries: its epoch, its covered sequence number and
/// the CRC-32 of its frame checksums in file order. Reads every frame
/// header but checks no payload — decode the file for that.
pub fn full_snapshot_ref(data: &[u8]) -> Result<SnapshotRef, CodecError> {
    let header = decode_snapshot_header(data)?;
    if header.base.is_some() {
        return Err(CodecError::Malformed("an overlay snapshot is no full snapshot".into()));
    }
    let mut crcs = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        if data.len() - pos < 8 {
            return Err(CodecError::Corrupt(pos));
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        crcs.extend_from_slice(&data[pos + 4..pos + 8]);
        pos = pos.saturating_add(8 + len);
    }
    if pos != data.len() {
        return Err(CodecError::Corrupt(data.len()));
    }
    Ok(SnapshotRef { epoch: header.epoch, last_seq: header.last_seq, digest: crc32(&crcs) })
}

/// Reads the `p` partition frames tagged `tag` that follow a header at
/// `*pos`, then the END frame. Frames must come in partition order and
/// every payload must be consumed whole.
fn decode_partitions<T>(
    data: &[u8],
    mut pos: usize,
    p: usize,
    tag: u8,
    mut body: impl FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut partitions: Vec<T> = Vec::with_capacity(p.min(1 << 16));
    loop {
        let at = pos;
        let frame = read_frame(data, &mut pos).ok_or(CodecError::Corrupt(at))?;
        let mut r = Reader::new(frame);
        match r.u8()? {
            t if t == tag => {
                let id = r.u32()? as usize;
                if id != partitions.len() {
                    return Err(CodecError::Malformed(format!(
                        "partition frame {id} out of order (expected {})",
                        partitions.len()
                    )));
                }
                let part = body(&mut r)?;
                if !r.done() {
                    return Err(CodecError::Malformed("trailing bytes in partition frame".into()));
                }
                partitions.push(part);
            }
            TAG_END => {
                if partitions.len() != p {
                    return Err(CodecError::Malformed(format!(
                        "snapshot ended after {} of {p} partitions",
                        partitions.len()
                    )));
                }
                return Ok(partitions);
            }
            other => {
                return Err(CodecError::Malformed(format!("unknown snapshot frame tag {other}")))
            }
        }
    }
}

/// Encodes `snap` into its on-disk byte representation (header frame,
/// partition frames, END frame). The buffer is sized once from the row
/// counts and every frame is written in place.
pub fn encode_snapshot(snap: &SnapshotData) -> Vec<u8> {
    let part_len = |p: &PartitionData| {
        1 + 4
            + p.base_rows.encoded_len()
            + p.delta_inserts.encoded_len()
            + deletes_len(&p.delta_deletes)
    };
    let total = (8 + header_len(snap.ranges.len(), None))
        + snap.partitions.iter().map(|p| 8 + part_len(p)).sum::<usize>()
        + (8 + 1);
    let mut out = Vec::with_capacity(total);
    write_frame_with(&mut out, |header| {
        encode_header(header, snap.epoch, snap.last_seq, snap.num_vertices, &snap.ranges, None);
    });
    for (i, part) in snap.partitions.iter().enumerate() {
        write_frame_with(&mut out, |body| {
            body.push(TAG_PARTITION);
            body.extend_from_slice(&(i as u32).to_le_bytes());
            encode_weighted_rows(body, &part.base_rows);
            encode_weighted_rows(body, &part.delta_inserts);
            encode_deletes(body, &part.delta_deletes);
        });
    }
    write_frame(&mut out, &[TAG_END]);
    debug_assert_eq!(out.len(), total, "encode_snapshot mis-sized its buffer");
    out
}

/// Decodes and fully validates a full snapshot buffer. Every frame must
/// checksum, the header must carry the current magic/version, every
/// declared partition must be present, and the END frame must close
/// the file — anything less is an error, so a torn or bit-flipped
/// snapshot is rejected whole and recovery falls back to an older one.
/// An overlay snapshot is an error here too: it holds no base rows.
pub fn decode_snapshot(data: &[u8]) -> Result<SnapshotData, CodecError> {
    let mut pos = 0usize;
    let header = read_header(data, &mut pos)?;
    if header.base.is_some() {
        return Err(CodecError::Malformed("an overlay snapshot holds no base rows".into()));
    }
    let partitions = decode_partitions(data, pos, header.ranges.len(), TAG_PARTITION, |r| {
        Ok(PartitionData {
            base_rows: decode_weighted_rows(r)?,
            delta_inserts: decode_weighted_rows(r)?,
            delta_deletes: decode_deletes(r)?,
        })
    })?;
    // A restore walks each partition's base rows once, in vertex order
    // over its own range.
    for (m, (part, &(start, end))) in partitions.iter().zip(&header.ranges).enumerate() {
        let srcs = &part.base_rows.srcs;
        let outside =
            srcs.first().is_some_and(|&s| s < start) || srcs.last().is_some_and(|&s| s >= end);
        if outside || srcs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Malformed(format!(
                "partition {m}'s base rows are not ascending sources of {start}..{end}"
            )));
        }
    }
    let SnapshotHeader { epoch, last_seq, num_vertices, ranges, .. } = header;
    Ok(SnapshotData { epoch, last_seq, num_vertices, ranges, partitions })
}

/// Encodes an overlay snapshot (overlay header frame, one overlay frame
/// per partition, END frame), sized once like [`encode_snapshot`].
pub fn encode_overlay_snapshot(snap: &OverlaySnapshot) -> Vec<u8> {
    let part_len = |p: &OverlayRows| 1 + 4 + p.inserts.encoded_len() + deletes_len(&p.deletes);
    let total = (8 + header_len(snap.ranges.len(), Some(&snap.base)))
        + snap.partitions.iter().map(|p| 8 + part_len(p)).sum::<usize>()
        + (8 + 1);
    let mut out = Vec::with_capacity(total);
    write_frame_with(&mut out, |header| {
        let (epoch, seq, n) = (snap.epoch, snap.last_seq, snap.num_vertices);
        encode_header(header, epoch, seq, n, &snap.ranges, Some(&snap.base));
    });
    for (i, part) in snap.partitions.iter().enumerate() {
        write_frame_with(&mut out, |body| {
            body.push(TAG_OVERLAY_PARTITION);
            body.extend_from_slice(&(i as u32).to_le_bytes());
            encode_weighted_rows(body, &part.inserts);
            encode_deletes(body, &part.deletes);
        });
    }
    write_frame(&mut out, &[TAG_END]);
    debug_assert_eq!(out.len(), total, "encode_overlay_snapshot mis-sized its buffer");
    out
}

/// Decodes and fully validates an overlay snapshot buffer, under the
/// same rules as [`decode_snapshot`]. A full snapshot is an error here.
/// Whether the full snapshot it names is intact is
/// [`OverlaySnapshot::over`]'s question.
pub fn decode_overlay_snapshot(data: &[u8]) -> Result<OverlaySnapshot, CodecError> {
    let mut pos = 0usize;
    let header = read_header(data, &mut pos)?;
    let Some(base) = header.base else {
        return Err(CodecError::Malformed("a full snapshot is no overlay snapshot".into()));
    };
    let partitions =
        decode_partitions(data, pos, header.ranges.len(), TAG_OVERLAY_PARTITION, |r| {
            Ok(OverlayRows { inserts: decode_weighted_rows(r)?, deletes: decode_deletes(r)? })
        })?;
    let SnapshotHeader { epoch, last_seq, num_vertices, ranges, .. } = header;
    Ok(OverlaySnapshot { epoch, last_seq, num_vertices, ranges, base, partitions })
}

// ---------------------------------------------------------------------
// WAL codec
// ---------------------------------------------------------------------

/// One write-ahead-log record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Edge updates buffered via `apply_updates`, logged *before* they
    /// are applied anywhere.
    Updates {
        /// Strictly increasing record sequence number.
        seq: u64,
        /// The buffered updates, in submission order.
        updates: Vec<EdgeUpdate>,
    },
    /// An epoch-commit fence: every `Updates` record logged before it
    /// (and after the previous `Commit`) folds into `epoch`.
    Commit {
        /// Strictly increasing record sequence number.
        seq: u64,
        /// The graph epoch this commit publishes.
        epoch: u64,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match *self {
            WalRecord::Updates { seq, .. } | WalRecord::Commit { seq, .. } => seq,
        }
    }
}

/// Encodes one WAL record as a single frame.
pub fn encode_wal_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame_with(&mut out, |body| match rec {
        WalRecord::Updates { seq, updates } => {
            body.reserve(1 + 8 + 4 + 21 * updates.len());
            body.push(TAG_WAL_UPDATES);
            body.extend_from_slice(&seq.to_le_bytes());
            body.extend_from_slice(&(updates.len() as u32).to_le_bytes());
            for u in updates {
                match *u {
                    EdgeUpdate::Insert { src, dst, weight } => {
                        body.push(1);
                        body.extend_from_slice(&src.to_le_bytes());
                        body.extend_from_slice(&dst.to_le_bytes());
                        body.extend_from_slice(&weight.to_bits().to_le_bytes());
                    }
                    EdgeUpdate::Delete { src, dst } => {
                        body.push(0);
                        body.extend_from_slice(&src.to_le_bytes());
                        body.extend_from_slice(&dst.to_le_bytes());
                        body.extend_from_slice(&0u32.to_le_bytes());
                    }
                }
            }
        }
        WalRecord::Commit { seq, epoch } => {
            body.push(TAG_WAL_COMMIT);
            body.extend_from_slice(&seq.to_le_bytes());
            body.extend_from_slice(&epoch.to_le_bytes());
        }
    });
    out
}

fn decode_wal_payload(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_WAL_UPDATES => {
            let seq = r.u64()?;
            let n = r.u32()? as usize;
            let mut updates = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let kind = r.u8()?;
                let src = r.u64()?;
                let dst = r.u64()?;
                let w = r.f32()?;
                updates.push(if kind == 1 {
                    EdgeUpdate::Insert { src, dst, weight: w }
                } else {
                    EdgeUpdate::Delete { src, dst }
                });
            }
            WalRecord::Updates { seq, updates }
        }
        TAG_WAL_COMMIT => {
            let seq = r.u64()?;
            let epoch = r.u64()?;
            WalRecord::Commit { seq, epoch }
        }
        other => return Err(CodecError::Malformed(format!("unknown WAL record tag {other}"))),
    };
    if !r.done() {
        return Err(CodecError::Malformed("trailing bytes in WAL record".into()));
    }
    Ok(rec)
}

/// Decodes the valid prefix of a WAL buffer: the records of every
/// intact frame plus the byte length of that prefix. Reading stops at
/// the first torn or checksum-failing frame — a recovering process
/// truncates the log to `valid_len` before appending again, so a torn
/// tail is discarded exactly once and never parsed.
pub fn decode_wal(data: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let before = pos;
        let Some(payload) = read_frame(data, &mut pos) else {
            return (records, before);
        };
        match decode_wal_payload(payload) {
            Ok(rec) => {
                // Sequence numbers must be strictly increasing; a
                // regression means the tail predates a truncation we
                // must not replay.
                if records.last().is_some_and(|last: &WalRecord| rec.seq() <= last.seq()) {
                    return (records, before);
                }
                records.push(rec);
            }
            Err(_) => return (records, before),
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic disk-fault injection
// ---------------------------------------------------------------------

/// Deterministic corruption of durability writes: torn writes (a
/// suffix of the buffer is lost), short writes (a few tail bytes are
/// lost), bit flips (one bit of the buffer is inverted), and lost
/// renames (a finished temp file never reaches its final name).
///
/// Like the chaos plane's message faults, every decision is a pure
/// `splitmix64` hash of `(seed, op_counter)` — no shared RNG stream —
/// so a fault schedule replays identically regardless of thread
/// timing, as long as the durability operations themselves are issued
/// in a deterministic order.
#[derive(Debug)]
pub struct DiskFaults {
    seed: u64,
    torn_prob: f64,
    short_prob: f64,
    flip_prob: f64,
    rename_lost_prob: f64,
    ops: AtomicU64,
}

impl DiskFaults {
    /// A fault injector with the given seed and per-operation
    /// probabilities (each in `0..=1`).
    pub fn new(seed: u64, torn: f64, short: f64, flip: f64, rename_lost: f64) -> Self {
        Self {
            seed,
            torn_prob: torn,
            short_prob: short,
            flip_prob: flip,
            rename_lost_prob: rename_lost,
            ops: AtomicU64::new(0),
        }
    }

    /// True when no disk fault can ever fire.
    pub fn is_empty(&self) -> bool {
        self.torn_prob == 0.0
            && self.short_prob == 0.0
            && self.flip_prob == 0.0
            && self.rename_lost_prob == 0.0
    }

    /// Next uniform-in-`[0,1)` decision (plus a raw hash for derived
    /// choices like offsets).
    fn roll(&self) -> (f64, u64) {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        ((h >> 11) as f64 / (1u64 << 53) as f64, h)
    }

    /// Draws the next write-fault decision (torn beats short beats
    /// flip) without touching any bytes. It consumes the rolls
    /// [`DiskFaults::mangle`] consumes — one per fault kind tried, up to
    /// the one that fires — so a caller can fix the decision when a
    /// write is *issued* and [`WriteFault::apply`] it wherever the bytes
    /// are produced later.
    pub fn draw_write_fault(&self) -> WriteFault {
        let (p_torn, h_torn) = self.roll();
        if p_torn < self.torn_prob {
            return WriteFault::Torn(h_torn);
        }
        let (p_short, h_short) = self.roll();
        if p_short < self.short_prob {
            return WriteFault::Short(h_short);
        }
        let (p_flip, h_flip) = self.roll();
        if p_flip < self.flip_prob {
            return WriteFault::Flip(h_flip);
        }
        WriteFault::None
    }

    /// Applies at most one write fault to `bytes`. Returns `true` when
    /// the buffer was mangled — the caller should treat the write as
    /// "landed corrupted", exactly what a crash mid-write leaves on
    /// disk.
    pub fn mangle(&self, bytes: &mut Vec<u8>) -> bool {
        if bytes.is_empty() {
            return false;
        }
        self.draw_write_fault().apply(bytes)
    }

    /// True when the atomic rename publishing a finished temp file is
    /// lost (the classic crash window between `write` and `rename`).
    pub fn drop_rename(&self) -> bool {
        let (p, _) = self.roll();
        p < self.rename_lost_prob
    }

    /// Every decision one snapshot write needs — what `mangle` then
    /// `drop_rename` would decide, drawn in that order — so the write
    /// itself can run on another thread without its timing reordering
    /// the schedule against the WAL appends sharing this injector.
    pub fn snapshot_ticket(&self) -> SnapshotTicket {
        SnapshotTicket { write: self.draw_write_fault(), rename_lost: self.drop_rename() }
    }
}

/// One drawn write-fault decision: which fault hits the buffer, with
/// the raw hash its offset derives from once the buffer's length is
/// known.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WriteFault {
    /// The write lands intact.
    #[default]
    None,
    /// Torn write: a suffix of the buffer is lost.
    Torn(u64),
    /// Short write: 1..=8 tail bytes are lost.
    Short(u64),
    /// One bit of the buffer is inverted.
    Flip(u64),
}

impl WriteFault {
    /// Applies the decision to `bytes`; `true` when they were mangled.
    /// An empty buffer is left alone.
    pub fn apply(self, bytes: &mut Vec<u8>) -> bool {
        if bytes.is_empty() {
            return false;
        }
        match self {
            WriteFault::None => return false,
            WriteFault::Torn(h) => {
                // Cut at a deterministic offset strictly inside the
                // buffer, so at least one byte is written and at least
                // one is lost.
                let keep = 1 + (h as usize % bytes.len().max(2).saturating_sub(1));
                bytes.truncate(keep.min(bytes.len() - 1).max(1));
            }
            WriteFault::Short(h) => {
                // The kernel accepted fewer bytes than asked — a small
                // suffix (1..=8 bytes) vanishes.
                let lost = 1 + (h as usize % 8).min(bytes.len() - 1);
                let keep = bytes.len() - lost;
                bytes.truncate(keep.max(1));
            }
            WriteFault::Flip(h) => {
                let bit = h as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        true
    }
}

/// The fault decisions of one snapshot write; the default is "no
/// fault".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotTicket {
    /// What happens to the encoded bytes on their way to the temp file.
    pub write: WriteFault,
    /// Whether the rename publishing the temp file is lost.
    pub rename_lost: bool,
}

/// The splitmix64 finalizer (same mixer the chaos plane uses).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(of: &[(VertexId, &[(VertexId, Weight)])]) -> WeightedRows {
        let mut rows = WeightedRows::new();
        for &(src, row) in of {
            rows.push_row(src, row);
        }
        rows
    }

    fn sample_snapshot() -> SnapshotData {
        SnapshotData {
            epoch: 7,
            last_seq: 41,
            num_vertices: 10,
            ranges: vec![(0, 4), (4, 10)],
            partitions: vec![
                PartitionData {
                    base_rows: rows(&[(0, &[(1, 1.0), (2, 0.5)]), (3, &[(9, 2.0)])]),
                    delta_inserts: rows(&[(1, &[(7, 1.0)])]),
                    delta_deletes: vec![(0, vec![2])],
                },
                PartitionData {
                    base_rows: rows(&[(4, &[(0, 1.0)])]),
                    delta_inserts: WeightedRows::new(),
                    delta_deletes: vec![(9, vec![0, 3])],
                },
            ],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as the reference
    /// the sliced version must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slice_by_8_equals_the_bytewise_loop() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926, "the reference is the IEEE CRC");
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Every length around the 8-byte step, then random ones to 4 096,
        // each at a random alignment inside its buffer.
        let lens = (0..=64usize).chain((0..200).map(|_| next() as usize % 4097));
        for len in lens.collect::<Vec<_>>() {
            let skew = next() as usize % 8;
            let buf: Vec<u8> = (0..len + skew).map(|_| next() as u8).collect();
            let bytes = &buf[skew..];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "length {len}, skew {skew}");
        }
    }

    #[test]
    fn weighted_rows_iterate_what_was_pushed() {
        let mut rows = WeightedRows::new();
        assert!(rows.is_empty());
        rows.push_row(3, &[(1, 1.0), (4, 0.5)]);
        rows.push_row(5, &[]);
        rows.push_row(9, &[(0, 2.0)]);
        assert_eq!(rows.len(), 3);
        let seen: Vec<(u64, Vec<(u64, f32)>)> = rows.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(seen, vec![(3, vec![(1, 1.0), (4, 0.5)]), (5, vec![]), (9, vec![(0, 2.0)])]);
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn snapshot_rejects_base_rows_a_restore_cannot_walk() {
        let a: &[(VertexId, Weight)] = &[(1, 1.0)];
        // Out of order, a repeated source, a source of the other range.
        for bad in [rows(&[(3, a), (0, a)]), rows(&[(0, a), (0, a)]), rows(&[(0, a), (5, a)])] {
            let mut snap = sample_snapshot();
            snap.partitions[0].base_rows = bad;
            let err = decode_snapshot(&encode_snapshot(&snap)).unwrap_err();
            assert!(
                matches!(err, CodecError::Malformed(ref m) if m.contains("partition 0")),
                "{err}"
            );
        }
    }

    #[test]
    fn snapshot_rejects_any_truncation() {
        let bytes = encode_snapshot(&sample_snapshot());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation to {cut} of {} bytes must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn snapshot_rejects_every_single_bit_flip() {
        let bytes = encode_snapshot(&sample_snapshot());
        let snap = decode_snapshot(&bytes).unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            // A flip must either fail decode or (never) silently change
            // the content; equality with the original is the only
            // acceptable Ok outcome and CRC makes it unreachable.
            match decode_snapshot(&b) {
                Err(_) => {}
                Ok(d) => assert_eq!(d, snap, "bit {bit} silently changed the snapshot"),
            }
        }
    }

    /// An overlay snapshot resting on `sample_snapshot()`'s encoding.
    fn sample_overlay(full: &[u8]) -> OverlaySnapshot {
        OverlaySnapshot {
            epoch: 9,
            last_seq: 47,
            num_vertices: 10,
            ranges: vec![(0, 4), (4, 10)],
            base: full_snapshot_ref(full).unwrap(),
            partitions: vec![
                OverlayRows { inserts: rows(&[(2, &[(5, 1.5)])]), deletes: vec![(3, vec![9])] },
                OverlayRows::default(),
            ],
        }
    }

    #[test]
    fn overlay_snapshot_round_trips_and_rests_on_its_full_snapshot() {
        let full = encode_snapshot(&sample_snapshot());
        let overlay = sample_overlay(&full);
        let bytes = encode_overlay_snapshot(&overlay);
        assert_eq!(decode_overlay_snapshot(&bytes).unwrap(), overlay);
        let header = decode_snapshot_header(&bytes).unwrap();
        assert_eq!((header.epoch, header.base), (9, Some(overlay.base)));
        assert_eq!(decode_snapshot_header(&full).unwrap().base, None);
        // Neither decoder takes the other kind.
        assert!(decode_snapshot(&bytes).is_err());
        assert!(decode_overlay_snapshot(&full).is_err());
        assert!(full_snapshot_ref(&bytes).is_err());
        // Over its full snapshot: the base rows stay, the overlays,
        // epoch and covered sequence number are the overlay file's.
        let merged = overlay.clone().over(&full).unwrap();
        let mut expect = sample_snapshot();
        expect.epoch = 9;
        expect.last_seq = 47;
        for (part, rows) in expect.partitions.iter_mut().zip(&overlay.partitions) {
            part.delta_inserts = rows.inserts.clone();
            part.delta_deletes = rows.deletes.clone();
        }
        assert_eq!(merged, expect);
    }

    #[test]
    fn overlay_snapshot_rejects_any_truncation_and_bit_flip() {
        let full = encode_snapshot(&sample_snapshot());
        let overlay = sample_overlay(&full);
        let bytes = encode_overlay_snapshot(&overlay);
        for cut in 0..bytes.len() {
            assert!(decode_overlay_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            if let Ok(d) = decode_overlay_snapshot(&b) {
                assert_eq!(d, overlay, "bit {bit} silently changed the overlay snapshot");
            }
        }
    }

    #[test]
    fn overlay_snapshot_does_not_rest_on_a_rewritten_full_snapshot() {
        let full = encode_snapshot(&sample_snapshot());
        let overlay = sample_overlay(&full);
        // Same name, same epoch, same covered sequence number — other
        // rows: the header frame is byte-identical, the digest is not.
        let mut other = sample_snapshot();
        other.partitions[1].base_rows = rows(&[(4, &[(1, 1.0)])]);
        let rewritten = encode_snapshot(&other);
        let (a, b) = (full_snapshot_ref(&full).unwrap(), full_snapshot_ref(&rewritten).unwrap());
        assert_eq!((a.epoch, a.last_seq), (b.epoch, b.last_seq));
        assert_ne!(a.digest, b.digest);
        assert!(overlay.clone().over(&rewritten).is_err());
        // Nor on a torn or bit-flipped copy of the right one.
        assert!(overlay.clone().over(&full[..full.len() - 1]).is_err());
        let mut flipped = full.clone();
        flipped[full.len() / 2] ^= 0x10;
        assert!(overlay.clone().over(&flipped).is_err());
        // Nor on a full snapshot that partitions the graph otherwise.
        let mut moved = overlay.clone();
        moved.ranges = vec![(0, 5), (5, 10)];
        assert!(moved.over(&full).is_err());
        assert!(overlay.over(&full).is_ok());
    }

    #[test]
    fn wal_records_round_trip_and_tail_is_cut() {
        let records = vec![
            WalRecord::Updates {
                seq: 1,
                updates: vec![EdgeUpdate::insert(0, 1), EdgeUpdate::delete(2, 3)],
            },
            WalRecord::Commit { seq: 2, epoch: 1 },
            WalRecord::Updates { seq: 3, updates: vec![EdgeUpdate::insert_weighted(4, 5, 2.5)] },
        ];
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_wal_record(r));
        }
        let (decoded, valid) = decode_wal(&log);
        assert_eq!(decoded, records);
        assert_eq!(valid, log.len());

        // Every truncation yields a (possibly shorter) valid prefix and
        // never a record past the cut.
        for cut in 0..log.len() {
            let (prefix, valid) = decode_wal(&log[..cut]);
            assert!(valid <= cut);
            assert!(prefix.len() <= records.len());
            assert_eq!(prefix[..], records[..prefix.len()], "cut at {cut}");
        }
    }

    #[test]
    fn wal_stops_at_corruption_and_non_monotone_seq() {
        let a = encode_wal_record(&WalRecord::Commit { seq: 1, epoch: 1 });
        let b = encode_wal_record(&WalRecord::Commit { seq: 2, epoch: 2 });
        let mut log = a.clone();
        log.extend_from_slice(&b);
        // Flip one payload bit of the first record: nothing decodes.
        let mut torn = log.clone();
        torn[9] ^= 0x40;
        let (recs, valid) = decode_wal(&torn);
        assert!(recs.is_empty());
        assert_eq!(valid, 0);
        // A stale (non-increasing) sequence number also stops replay.
        let mut stale = b.clone();
        stale.extend_from_slice(&a);
        stale.extend_from_slice(&b);
        let (recs, valid) = decode_wal(&stale);
        assert_eq!(recs, vec![WalRecord::Commit { seq: 2, epoch: 2 }]);
        assert_eq!(valid, b.len());
    }

    #[test]
    fn disk_faults_are_deterministic() {
        let run = |seed| {
            let f = DiskFaults::new(seed, 0.3, 0.2, 0.2, 0.1);
            let mut outcomes = Vec::new();
            for i in 0..64u8 {
                let mut buf = vec![i; 64];
                let mangled = f.mangle(&mut buf);
                outcomes.push((mangled, buf));
                outcomes.push((f.drop_rename(), Vec::new()));
            }
            outcomes
        };
        assert_eq!(run(7), run(7), "same seed, same fault schedule");
        assert_ne!(run(7), run(8), "different seeds diverge");
        assert!(run(7).iter().any(|(m, _)| *m), "faults must actually fire at these rates");
    }

    #[test]
    fn snapshot_ticket_is_mangle_then_drop_rename_drawn_early() {
        // Same seed, two injectors: one decides while it mangles (the
        // synchronous write path), the other draws a ticket first and
        // applies it later. Decisions, bytes and the number of rolls
        // consumed must agree at every step — the next operation on
        // either injector sees the same schedule.
        for seed in 0..40u64 {
            let inline = DiskFaults::new(seed, 0.3, 0.2, 0.2, 0.25);
            let ticketed = DiskFaults::new(seed, 0.3, 0.2, 0.2, 0.25);
            for i in 0..32u8 {
                let mut a = vec![i; 48];
                let mangled = inline.mangle(&mut a);
                let lost = inline.drop_rename();

                let ticket = ticketed.snapshot_ticket();
                let mut b = vec![i; 48];
                assert_eq!(ticket.write.apply(&mut b), mangled, "seed {seed} op {i}");
                assert_eq!(b, a, "seed {seed} op {i}");
                assert_eq!(ticket.rename_lost, lost, "seed {seed} op {i}");

                // An interleaved WAL append lands on the same rolls.
                let (mut wa, mut wb) = (vec![0xA5; 24], vec![0xA5; 24]);
                assert_eq!(inline.mangle(&mut wa), ticketed.mangle(&mut wb));
                assert_eq!(wa, wb, "seed {seed} op {i}: schedules diverged after the ticket");
            }
        }
        assert_eq!(SnapshotTicket::default().write, WriteFault::None);
        assert!(!SnapshotTicket::default().rename_lost);
    }

    #[test]
    fn empty_faults_never_fire() {
        let f = DiskFaults::new(1, 0.0, 0.0, 0.0, 0.0);
        assert!(f.is_empty());
        let mut buf = vec![1, 2, 3];
        assert!(!f.mangle(&mut buf));
        assert_eq!(buf, vec![1, 2, 3]);
        assert!(!f.drop_rename());
    }

    #[test]
    fn mangled_frames_never_decode_as_valid() {
        // Chaos sweep at the codec level: whatever mangle does to a WAL
        // buffer, decode_wal returns only records that were really
        // written, never a fabricated one.
        let records: Vec<WalRecord> =
            (1..=16).map(|s| WalRecord::Commit { seq: s, epoch: s }).collect();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_wal_record(r));
        }
        for seed in 0..50u64 {
            let f = DiskFaults::new(seed, 0.5, 0.3, 0.5, 0.0);
            let mut mangled = log.clone();
            f.mangle(&mut mangled);
            let (decoded, _) = decode_wal(&mangled);
            assert!(decoded.len() <= records.len());
            assert_eq!(decoded[..], records[..decoded.len()], "seed {seed}");
        }
    }
}
