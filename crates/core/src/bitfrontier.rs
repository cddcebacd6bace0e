//! Bit-packed concurrent traversal state (§3.5, Fig. 6).
//!
//! Up to [`MAX_LANES`](cgraph_graph::MAX_LANES) queries form a *batch*;
//! each query owns one bit lane. Per local vertex the shard keeps three
//! word groups — `frontier`, `next` (frontierNext) and `visited` — of
//! `W/64` words each, where `W ∈ {64, 128, 256, 512}` is the batch
//! width, so one row read covers a vertex's membership in every
//! concurrent frontier at once. A traversal hop is then:
//!
//! 1. **Scan**: list the rows with a non-zero `frontier` row once, then
//!    for every tile walk its share of that list and OR each row into
//!    `next[slot]` for each out-edge, where a tile's columns are the
//!    shard's slots ([`Shard::target_of`]), numbering local targets
//!    first and boundary (remote) targets after them; then walk the
//!    boundary rows once and emit `(t, row)` for each touched remote
//!    target. Shared neighbours of shared frontiers cost a single
//!    pass — the "one traversal on these two vertices" sharing of
//!    Fig. 3b. A published delta overlay
//!    is read in its [`OverlayScan`] form — source-ordered lists with
//!    every inserted target already resolved to its slot — walked with
//!    cursors beside the live rows, so an overlay row costs what a base
//!    row costs.
//! 2. **Absorb**: OR the remote rows received from peers (one
//!    [`FrontierBatch`] per sender) into `next`.
//! 3. **Advance**: `new = next & !visited`; `visited |= new`;
//!    `frontier = new`; count newly visited vertices per lane.
//!
//! The state is per-shard; [`crate::engine`] wires shards together.

use crate::shard::Shard;
use cgraph_graph::bitmap::{LaneMask, LaneMatrix, LaneWidth};
use cgraph_graph::delta::{DeltaOverlay, DeltaRow};
use cgraph_graph::VertexId;
use std::ops::Range;

/// Runs `$body` with `$S` bound to the row stride `$words` as a
/// constant, so the per-row work is a fixed `S`-word operation — a
/// single `|=` at `W = 64`.
macro_rules! with_stride {
    ($words:expr, $S:ident => $body:expr) => {
        match $words {
            1 => {
                const $S: usize = 1;
                $body
            }
            2 => {
                const $S: usize = 2;
                $body
            }
            4 => {
                const $S: usize = 4;
                $body
            }
            8 => {
                const $S: usize = 8;
                $body
            }
            w => unreachable!("LaneWidth admits 1, 2, 4 or 8 words, not {w}"),
        }
    };
}

/// Remote frontier rows bound for one machine, at the batch's own
/// stride: `ids[i]`'s lanes are `words[i * stride..][..stride]`. One
/// entry per destination vertex, ascending — the order
/// [`BitFrontier::scan`] emits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierBatch {
    stride: usize,
    ids: Vec<VertexId>,
    words: Vec<u64>,
}

impl FrontierBatch {
    /// An empty batch of `stride` words per vertex.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "a frontier row has at least one word");
        Self { stride, ids: Vec::new(), words: Vec::new() }
    }

    /// Appends destination `v` with its lane words; `v` must exceed
    /// every vertex already in the batch.
    #[inline]
    pub fn push(&mut self, v: VertexId, row: &[u64]) {
        debug_assert_eq!(row.len(), self.stride);
        debug_assert!(
            self.ids.last().is_none_or(|&last| last < v),
            "one entry per vertex, ascending"
        );
        self.ids.push(v);
        self.words.extend_from_slice(row);
    }

    /// Words per vertex.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Destination vertices carried.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the batch carries no vertex.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// `(destination, lane words)` per entry, ascending by vertex.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[u64])> + '_ {
        self.ids.iter().copied().zip(self.words.chunks_exact(self.stride))
    }

    /// The union of two batches of one stride: a vertex present in both
    /// gets its rows ORed into one entry.
    pub fn or_merge(&self, other: &FrontierBatch) -> FrontierBatch {
        use std::cmp::Ordering::{Equal, Greater, Less};
        assert_eq!(self.stride, other.stride, "batches of one superstep share a width");
        let mut out = FrontierBatch::new(self.stride);
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        while let (Some(&(va, ra)), Some(&(vb, rb))) = (a.peek(), b.peek()) {
            match va.cmp(&vb) {
                Less => {
                    out.push(va, ra);
                    a.next();
                }
                Greater => {
                    out.push(vb, rb);
                    b.next();
                }
                Equal => {
                    out.ids.push(va);
                    out.words.extend(ra.iter().zip(rb).map(|(x, y)| x | y));
                    a.next();
                    b.next();
                }
            }
        }
        for (v, row) in a.chain(b) {
            out.push(v, row);
        }
        out
    }
}

/// The slot of an inserted target no base edge of the shard reaches (a
/// remote vertex outside the boundary): the scan spills it.
const NO_SLOT: u32 = u32::MAX;

/// Per-row lists, flattened: `rows[i]`'s entries are
/// `items[span(i)]`, and `rows` ascends.
#[derive(Debug)]
struct RowLists<T> {
    /// Local row numbers, ascending.
    rows: Vec<u32>,
    /// `rows.len() + 1` bounds into `items`.
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> RowLists<T> {
    const EMPTY: Self = Self { rows: Vec::new(), offsets: Vec::new(), items: Vec::new() };

    fn new() -> Self {
        Self { rows: Vec::new(), offsets: vec![0], items: Vec::new() }
    }

    /// Appends row `row` (above every row already listed) with `items`.
    fn push(&mut self, row: u32, items: impl IntoIterator<Item = T>) {
        debug_assert!(self.rows.last().is_none_or(|&last| last < row));
        self.rows.push(row);
        self.items.extend(items);
        self.offsets.push(u32::try_from(self.items.len()).expect("overlay entries fit u32"));
    }

    /// The entries of the `i`-th listed row.
    #[inline]
    fn span(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }
}

/// The read form of one published [`DeltaOverlay`] on the shard that
/// owns it — what [`BitFrontier::scan`] walks instead of the overlay's
/// hash map, in the order it walks its live rows.
///
/// Sources are local rows, ascending, in two lists: the rows with
/// inserted edges, each inserted target beside its accumulator slot
/// (resolved once, here, rather than by a boundary search per scan;
/// a target without one is spilled), and the rows that delete base
/// edges, each with the slots of those targets ascending — the scan
/// compares a tile's columns against them. Slots belong to the shard,
/// so a form is only meaningful beside the shard it was derived
/// against; the engine derives it once per published overlay value, on
/// the first scan that needs it.
#[derive(Debug)]
pub struct OverlayScan {
    /// Per insert row, the slot of each inserted target ([`NO_SLOT`] to
    /// spill) …
    inserts: RowLists<u32>,
    /// … and the target itself, aligned with `inserts.items`.
    insert_targets: Vec<VertexId>,
    /// Per row that deletes base edges, their slots, ascending.
    deletes: RowLists<u32>,
}

impl OverlayScan {
    /// The form of no overlay.
    const EMPTY: Self =
        Self { inserts: RowLists::EMPTY, insert_targets: Vec::new(), deletes: RowLists::EMPTY };

    /// Derives the form of `delta` against `shard`: its rows whose
    /// source is local to the shard, in ascending source order.
    pub fn new(delta: &DeltaOverlay, shard: &Shard) -> Self {
        let mut rows: Vec<(VertexId, &DeltaRow)> =
            delta.rows().filter(|&(v, _)| shard.is_local(v)).collect();
        rows.sort_unstable_by_key(|&(v, _)| v);
        let mut form =
            Self { inserts: RowLists::new(), insert_targets: Vec::new(), deletes: RowLists::new() };
        let tiles = shard.out_sets().sets();
        let mut slots = Vec::new();
        for (v, row) in rows {
            let l = shard.to_local(v);
            if !row.inserts().is_empty() {
                let slots = row.inserts().iter().map(|&(t, _)| shard.slot_of(t).unwrap_or(NO_SLOT));
                form.inserts.push(l, slots);
                form.insert_targets.extend(row.inserts().iter().map(|&(t, _)| t));
            }
            // A delete may name an edge the base does not have (one
            // the overlay itself inserted earlier, or none at all); only
            // a deleted base edge changes what the tile walk reads. A
            // tile row's columns are in target order, so its targets are
            // searched through the slots.
            let base_edge = |t: VertexId| {
                tiles
                    .iter()
                    .any(|s| s.columns(v).binary_search_by_key(&t, |&c| shard.target_of(c)).is_ok())
            };
            slots.clear();
            let slot = |t: VertexId| shard.slot_of(t).expect("a base edge's target has a slot");
            slots.extend(row.deletes().iter().copied().filter(|&t| base_edge(t)).map(slot));
            if !slots.is_empty() {
                slots.sort_unstable();
                form.deletes.push(l, slots.iter().copied());
            }
        }
        form
    }
}

/// Per-shard traversal state for one query batch of runtime width.
#[derive(Debug)]
pub struct BitFrontier {
    frontier: LaneMatrix,
    /// `num_local` rows for local vertices, then one row per boundary
    /// vertex of the shard ([`Shard::num_slots`] rows in all). The
    /// boundary rows are non-zero only inside [`BitFrontier::scan`].
    next: LaneMatrix,
    visited: LaneMatrix,
    /// Scratch of the scan: the local rows with a non-zero frontier,
    /// ascending, in a prefix of this `num_local`-long buffer. Derived
    /// from `frontier` by every scan, so nothing that writes the
    /// frontier has to keep it current.
    active: Vec<u32>,
    base: VertexId,
    num_local: usize,
    /// Live lanes in this batch (`lanes <= width.bits()`).
    lanes: usize,
    width: LaneWidth,
    /// Mask with the low `lanes` bits set.
    all_lanes: LaneMask,
}

/// Outcome of one [`BitFrontier::advance`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvanceResult {
    /// OR of all new frontier rows: lane `q` set ⇔ query `q` still has
    /// local frontier vertices.
    pub active_lanes: LaneMask,
    /// Newly visited vertices per lane this hop (length = batch
    /// width in bits).
    pub new_per_lane: Vec<u64>,
    /// Total local frontier vertices after the advance.
    pub frontier_vertices: u64,
}

impl BitFrontier {
    /// Creates zeroed state for a shard's local range, sized for a
    /// batch of `lanes` queries (the width rounds up to the narrowest
    /// supported `W`).
    pub fn new(shard: &Shard, lanes: usize) -> Self {
        let num_local = shard.num_local();
        let width = LaneWidth::for_lanes(lanes);
        Self {
            frontier: LaneMatrix::with_width(num_local, width),
            next: LaneMatrix::with_width(shard.num_slots(), width),
            visited: LaneMatrix::with_width(num_local, width),
            active: vec![0; num_local],
            base: shard.local_range().start,
            num_local,
            lanes,
            width,
            all_lanes: LaneMask::all(lanes),
        }
    }

    /// The batch width backing this state.
    pub fn width(&self) -> LaneWidth {
        self.width
    }

    /// Live lanes in this batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Seeds query lane `lane` at local-owned global vertex `v`: the
    /// source enters both `frontier` and `visited`.
    pub fn seed(&mut self, v: VertexId, lane: usize) {
        debug_assert!(lane < self.lanes);
        let l = (v - self.base) as usize;
        self.frontier.set(l, lane);
        self.visited.set(l, lane);
    }

    /// True when no lane has local frontier vertices.
    pub fn frontier_empty(&self) -> bool {
        self.frontier.all_zero()
    }

    /// The frontier word of a local-owned global vertex
    /// (single-word batches; tests).
    pub fn frontier_word(&self, v: VertexId) -> u64 {
        self.frontier.word((v - self.base) as usize)
    }

    /// The visited word of a local-owned global vertex
    /// (single-word batches; tests).
    pub fn visited_word(&self, v: VertexId) -> u64 {
        self.visited.word((v - self.base) as usize)
    }

    /// The full frontier row of a local-owned global vertex at any
    /// batch width. Right after [`BitFrontier::advance`] the frontier
    /// holds exactly the lanes that *first reached* each vertex this
    /// superstep — index construction probes boundary vertices here to
    /// learn per-lane first-visit levels without touching the scan
    /// path.
    pub fn frontier_mask(&self, v: VertexId) -> LaneMask {
        LaneMask::from_words(self.frontier.row((v - self.base) as usize))
    }

    /// Clears every frontier lane not present in `keep` — used by the
    /// engine to retire lanes whose hop budget (`k`) is exhausted while
    /// other lanes in the batch keep traversing. Skipped entirely when
    /// `keep` covers every live lane of the batch (no lane retired), so
    /// steady-state supersteps never pay the matrix pass — regardless
    /// of how many of the width's bits the batch actually uses.
    pub fn mask_frontier(&mut self, keep: &LaneMask) {
        debug_assert_eq!(keep.width(), self.width);
        if keep.covers(&self.all_lanes) {
            return;
        }
        let stride = self.width.words();
        let keep_words = keep.words();
        for row in self.frontier.words_mut().chunks_exact_mut(stride) {
            for (w, &k) in row.iter_mut().zip(keep_words) {
                *w &= k;
            }
        }
    }

    /// Scan phase: lists the live frontier rows, walks the shard's
    /// edge-set tiles in row-major order — each tile over its share of
    /// that list — ORing each live row into `next[slot]` for every
    /// out-edge, local and boundary targets alike, addressed by the
    /// shard's slot table. Afterwards the boundary rows are walked once
    /// and handed to `remote` as `(global_dst, lane words)`: **one
    /// coalesced call per touched remote destination, in ascending
    /// vertex order**, each row zeroed as it is emitted.
    ///
    /// With an `overlay` (the [`OverlayScan`] of this shard's published
    /// delta) the tile walk takes each live row's delete list from a
    /// cursor over the overlay's delete rows and skips the base edges it
    /// names, and an insert pass walks the overlay's insert rows beside
    /// the live-row list, ORing each live one into its inserted
    /// targets' slots with the same kernel the base edges use. An
    /// inserted edge to a remote vertex no base edge of this shard
    /// reaches has no slot; those go through a spill list that is
    /// sorted, coalesced and merged into the emission order, so the
    /// contract above holds with an overlay too.
    ///
    /// Returns the number of (row, tile) pairs actually scanned, plus
    /// one per live row with inserted edges — the work metric the
    /// edge-set and lane-width ablations report.
    pub fn scan(
        &mut self,
        shard: &Shard,
        overlay: Option<&OverlayScan>,
        mut remote: impl FnMut(VertexId, &[u64]),
    ) -> u64 {
        static NO_OVERLAY: OverlayScan = OverlayScan::EMPTY;
        let overlay = overlay.unwrap_or(&NO_OVERLAY);
        let mut spill: Vec<(VertexId, LaneMask)> = Vec::new();
        let scanned =
            with_stride!(self.width.words(), S => self.scan_rows::<S>(shard, overlay, &mut spill));
        spill.sort_unstable_by_key(|e| e.0);
        spill.dedup_by(|dup, kept| {
            let same = dup.0 == kept.0;
            if same {
                kept.1.or_assign(&dup.1);
            }
            same
        });
        // Emission: boundary rows ascend with their vertex ids, and a
        // spilled target is by definition not a boundary vertex, so a
        // two-way merge yields every destination once, in order.
        let mut spill = spill.iter().peekable();
        with_stride!(self.width.words(), S => {
            let (next, _) = self.next.words_mut().as_chunks_mut::<S>();
            for (&t, row) in shard.boundary_vertices().iter().zip(&mut next[self.num_local..]) {
                if *row == [0; S] {
                    continue;
                }
                while let Some((st, sw)) = spill.next_if(|e| e.0 < t) {
                    remote(*st, sw.words());
                }
                remote(t, row);
                *row = [0; S];
            }
        });
        for (st, sw) in spill {
            remote(*st, sw.words());
        }
        scanned
    }

    /// The tile walk and the overlay insert pass of
    /// [`BitFrontier::scan`] at row stride `S` (words per vertex).
    fn scan_rows<const S: usize>(
        &mut self,
        shard: &Shard,
        overlay: &OverlayScan,
        spill: &mut Vec<(VertexId, LaneMask)>,
    ) -> u64 {
        let base = self.base;
        let (frontier, _) = self.frontier.words().as_chunks::<S>();
        // One pass lists the live rows; the write is unconditional and
        // only the length moves, so a half-full frontier costs no
        // mispredicted branch per row.
        let mut live = 0;
        for (l, row) in frontier.iter().enumerate() {
            self.active[live] = l as u32;
            live += usize::from(*row != [0; S]);
        }
        let active = &self.active[..live];
        let (next, _) = self.next.words_mut().as_chunks_mut::<S>();
        let deletes = &overlay.deletes;
        let mut scanned = 0u64;
        for set in shard.out_sets().sets() {
            let (offsets, slots, _) = set.raw_parts();
            // The tile's rows as local row numbers, and its share of
            // the live list.
            let first = (set.row_range.start - base) as usize;
            let end = first + set.row_range.len() as usize;
            let lo = active.partition_point(|&l| (l as usize) < first);
            let hi = lo + active[lo..].partition_point(|&l| (l as usize) < end);
            // The delete rows ascend, and so does the tile's share of
            // the live list: a cursor walked beside it finds the few
            // rows whose base edges the overlay deletes.
            let mut d = deletes.rows.partition_point(|&r| (r as usize) < first);
            for &l in &active[lo..hi] {
                let r = l as usize - first;
                let span = offsets[r] as usize..offsets[r + 1] as usize;
                if span.is_empty() {
                    continue;
                }
                scanned += 1;
                let row = frontier[l as usize];
                while deletes.rows.get(d).is_some_and(|&r| r < l) {
                    d += 1;
                }
                if deletes.rows.get(d) == Some(&l) {
                    let dels = &deletes.items[deletes.span(d)];
                    for &slot in &slots[span] {
                        if dels.binary_search(&slot).is_err() {
                            or_words(&mut next[slot as usize], &row);
                        }
                    }
                } else {
                    for &slot in &slots[span] {
                        or_words(&mut next[slot as usize], &row);
                    }
                }
            }
        }
        // Insert pass: the insert rows ascend like the live list, so
        // one cursor finds the live ones.
        let inserts = &overlay.inserts;
        let mut c = 0;
        for (i, &r) in inserts.rows.iter().enumerate() {
            while active.get(c).is_some_and(|&l| l < r) {
                c += 1;
            }
            if active.get(c) != Some(&r) {
                continue;
            }
            scanned += 1;
            let row = frontier[r as usize];
            let span = inserts.span(i);
            for (&slot, &t) in inserts.items[span.clone()].iter().zip(&overlay.insert_targets[span])
            {
                if slot == NO_SLOT {
                    spill.push((t, LaneMask::from_words(&row)));
                } else {
                    or_words(&mut next[slot as usize], &row);
                }
            }
        }
        scanned
    }

    /// Absorb phase: ORs a peer's rows into `next` for the local-owned
    /// destinations they name.
    pub fn absorb(&mut self, batch: &FrontierBatch) {
        assert_eq!(batch.stride, self.width.words(), "a batch travels at its own width");
        let base = self.base;
        with_stride!(batch.stride, S => {
            let (next, _) = self.next.words_mut().as_chunks_mut::<S>();
            let (rows, _) = batch.words.as_chunks::<S>();
            for (&v, row) in batch.ids.iter().zip(rows) {
                or_words(&mut next[(v - base) as usize], row);
            }
        })
    }

    /// Advance phase: filters `next` against `visited`, promotes the
    /// survivors to the new frontier, and counts per-lane discoveries.
    pub fn advance(&mut self) -> AdvanceResult {
        with_stride!(self.width.words(), S => self.advance_rows::<S>())
    }

    /// [`BitFrontier::advance`] at row stride `S`.
    fn advance_rows<const S: usize>(&mut self) -> AdvanceResult {
        let (frontier, _) = self.frontier.words_mut().as_chunks_mut::<S>();
        let (next, _) = self.next.words_mut().as_chunks_mut::<S>();
        let (next, boundary) = next.split_at_mut(self.num_local);
        debug_assert!(
            boundary.iter().all(|row| *row == [0; S]),
            "boundary rows are zeroed by the scan that filled them"
        );
        let (visited, _) = self.visited.words_mut().as_chunks_mut::<S>();
        let mut active = [0u64; S];
        let mut frontier_vertices = 0u64;
        let mut counts = LaneCounts::<S>::new();
        let blocks = frontier
            .chunks_mut(COUNT_BLOCK)
            .zip(next.chunks_mut(COUNT_BLOCK))
            .zip(visited.chunks_mut(COUNT_BLOCK));
        for ((frontier, next), visited) in blocks {
            let mut block_any = 0u64;
            for ((f, n), v) in frontier.iter_mut().zip(next).zip(visited) {
                let mut any = 0u64;
                for j in 0..S {
                    let new = n[j] & !v[j];
                    n[j] = 0;
                    f[j] = new;
                    v[j] |= new;
                    active[j] |= new;
                    any |= new;
                }
                frontier_vertices += u64::from(any != 0);
                block_any |= any;
            }
            if block_any != 0 {
                counts.add(frontier);
            }
        }
        AdvanceResult {
            active_lanes: LaneMask::from_words(&active),
            new_per_lane: counts.finish(),
            frontier_vertices,
        }
    }

    /// Per-lane counts of *currently visited* local vertices (length =
    /// batch width in bits).
    pub fn visited_per_lane(&self) -> Vec<u64> {
        with_stride!(self.width.words(), S => {
            let (visited, _) = self.visited.words().as_chunks::<S>();
            let mut counts = LaneCounts::<S>::new();
            for block in visited.chunks(COUNT_BLOCK) {
                counts.add(block);
            }
            counts.finish()
        })
    }

    /// Snapshots the `(frontier, visited)` words — the complete
    /// traversal state at a superstep boundary (`next` is always zero
    /// there, having just been promoted by [`BitFrontier::advance`]).
    /// This is the checkpoint payload of the recovery layer; each
    /// vector holds `num_local × width.words()` words.
    pub fn snapshot_words(&self) -> (Vec<u64>, Vec<u64>) {
        (self.frontier.words().to_vec(), self.visited.words().to_vec())
    }

    /// Restores state captured by [`BitFrontier::snapshot_words`];
    /// `next` is cleared (a boundary has no pending accumulation).
    ///
    /// # Panics
    ///
    /// Panics when the snapshot was taken at a different batch width —
    /// a checkpoint of one width can never resume a batch of another.
    pub fn restore_words(&mut self, frontier: &[u64], visited: &[u64]) {
        let expect = self.num_local * self.width.words();
        assert_eq!(
            frontier.len(),
            expect,
            "snapshot width mismatch: {} words for {} local vertices at width {} (want {expect})",
            frontier.len(),
            self.num_local,
            self.width.bits(),
        );
        assert_eq!(visited.len(), expect, "snapshot width mismatch (visited)");
        self.frontier.words_mut().copy_from_slice(frontier);
        self.visited.words_mut().copy_from_slice(visited);
        self.next.clear_all();
    }

    /// Discards any half-accumulated `next` words. A machine saving
    /// state at a poisoned barrier is mid-superstep: its `frontier` and
    /// `visited` still hold the last boundary's values, but `next` may
    /// hold partial scan results that a resume would re-derive.
    pub fn clear_next(&mut self) {
        self.next.clear_all();
    }

    /// Heap bytes held: 3 × `width.words()` words per local vertex, one
    /// `next` row per boundary vertex, and the scan's 4-byte live-row
    /// entry per local vertex.
    pub fn size_bytes(&self) -> usize {
        self.frontier.size_bytes()
            + self.next.size_bytes()
            + self.visited.size_bytes()
            + self.active.len() * std::mem::size_of::<u32>()
    }
}

/// `dst |= src`, word for word.
#[inline(always)]
fn or_words<const S: usize>(dst: &mut [u64; S], src: &[u64; S]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Rows [`LaneCounts`] adds per step.
const COUNT_BLOCK: usize = 8;
/// Bit planes per counter: a lane counts to `2^COUNT_PLANES − 1`
/// between flushes.
const COUNT_PLANES: usize = 12;
/// Rows a counter takes before it flushes its planes into the totals
/// (whole blocks only, so no plane can overflow). Public so a test can
/// straddle the boundary.
pub const COUNT_FLUSH_ROWS: usize = ((1 << COUNT_PLANES) - 1) / COUNT_BLOCK * COUNT_BLOCK;

/// Per-lane population counts over rows of `S` words, bit-sliced:
/// plane `k` of word `j` holds bit `k` of the running count of each of
/// that word's 64 lanes. A block of rows goes in through a fixed tree
/// of carry-save adders — no branch and no loop over set bits, a few
/// word operations per row whatever its lanes hold — and the planes are
/// folded into `u64` totals before a lane could count past them.
struct LaneCounts<const S: usize> {
    planes: [[u64; COUNT_PLANES]; S],
    /// Rows added since the last flush: the most any lane can hold.
    pending: usize,
    totals: Vec<u64>,
}

/// Carry-save adder: three words of one weight in, `(sum, carry)` out —
/// per lane `a + b + c = sum + 2 × carry`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

impl<const S: usize> LaneCounts<S> {
    fn new() -> Self {
        Self { planes: [[0; COUNT_PLANES]; S], pending: 0, totals: vec![0; S * 64] }
    }

    /// Counts the set lanes of up to [`COUNT_BLOCK`] rows.
    #[inline]
    fn add(&mut self, rows: &[[u64; S]]) {
        if self.pending == COUNT_FLUSH_ROWS {
            self.flush();
        }
        self.pending += COUNT_BLOCK;
        let padded;
        let r: &[[u64; S]; COUNT_BLOCK] = match rows.try_into() {
            Ok(block) => block,
            Err(_) => {
                let mut block = [[0; S]; COUNT_BLOCK];
                block[..rows.len()].copy_from_slice(rows);
                padded = block;
                &padded
            }
        };
        for (j, p) in self.planes.iter_mut().enumerate() {
            // Eight ones → the ones plane plus four twos; those → the
            // twos plane plus two fours; those → the fours plane plus
            // one eight, which ripples through the planes above.
            let (ones, t0) = csa(p[0], r[0][j], r[1][j]);
            let (ones, t1) = csa(ones, r[2][j], r[3][j]);
            let (ones, t2) = csa(ones, r[4][j], r[5][j]);
            let (ones, t3) = csa(ones, r[6][j], r[7][j]);
            let (twos, f0) = csa(p[1], t0, t1);
            let (twos, f1) = csa(twos, t2, t3);
            let (fours, mut carry) = csa(p[2], f0, f1);
            (p[0], p[1], p[2]) = (ones, twos, fours);
            for plane in &mut p[3..] {
                (*plane, carry) = (*plane ^ carry, *plane & carry);
            }
        }
    }

    /// Folds the planes into the totals and zeroes them.
    fn flush(&mut self) {
        for (planes, totals) in self.planes.iter_mut().zip(self.totals.chunks_exact_mut(64)) {
            for (k, plane) in planes.iter_mut().enumerate() {
                let mut bits = std::mem::take(plane);
                while bits != 0 {
                    totals[bits.trailing_zeros() as usize] += 1 << k;
                    bits &= bits - 1;
                }
            }
        }
        self.pending = 0;
    }

    /// The counts, lane `j × 64 + b` for bit `b` of word `j`.
    fn finish(mut self) -> Vec<u64> {
        self.flush();
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RangePartition;
    use cgraph_graph::{ConsolidationPolicy, EdgeList};

    /// Single-shard helper over a small graph.
    fn single_shard(edges: &EdgeList) -> Shard {
        let part = RangePartition::by_vertices(edges.num_vertices(), 1);
        Shard::build(0, &part, edges.edges(), ConsolidationPolicy::default())
    }

    /// A 64-wide mask from a single word.
    fn m64(w: u64) -> LaneMask {
        LaneMask::from_words(&[w])
    }

    #[test]
    fn tile_walk_makes_no_hash_lookup() {
        use cgraph_graph::delta::EdgeUpdate;
        // A 32-ring with a chord per vertex, cut into a grid of small
        // tiles so a live row is met in several of them.
        let n = 32u64;
        let g: EdgeList = (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 13) % n)]).collect();
        let part = RangePartition::by_vertices(n, 1);
        let shard = Shard::build(0, &part, g.edges(), ConsolidationPolicy::grid(4));
        let tiles = shard.out_sets().sets().len() as u64;
        assert!(tiles > 4, "want a real grid, got {tiles} tile(s)");

        // Every row live in lane 0; returns the rows `next` reached and
        // the scan count.
        let scan = |overlay: Option<&OverlayScan>| {
            let mut bf = BitFrontier::new(&shard, 64);
            for v in 0..n {
                bf.seed(v, 0);
            }
            let scanned = bf.scan(&shard, overlay, |_, _| unreachable!("one shard"));
            let reached: Vec<u64> = (0..n).filter(|&v| bf.next.row(v as usize)[0] != 0).collect();
            (reached, scanned)
        };
        let (all, row_tile_pairs) = scan(None);
        assert_eq!(all.len() as u64, n);

        // Inserts on every third row; deletes on two rows, both
        // in-edges of vertex 9. What the overlay's own merge says is
        // reachable is the reference.
        let mut overlay = DeltaOverlay::new();
        for v in (0..n).step_by(3) {
            overlay.apply(&EdgeUpdate::insert(v, (v + 5) % n));
        }
        overlay.apply(&EdgeUpdate::delete(8, 9));
        overlay.apply(&EdgeUpdate::delete(28, 9));
        let effective = |v: u64| {
            let mut base = vec![((v + 1) % n, 1.0), ((v + 13) % n, 1.0)];
            base.sort_by_key(|e| e.0);
            overlay.row(v).map_or(base.clone(), |r| r.merge(base).collect())
        };
        let mut want: Vec<u64> = (0..n).flat_map(effective).map(|(t, _)| t).collect();
        want.sort_unstable();
        want.dedup();
        assert!(!want.contains(&9) && want.len() as u64 == n - 1);

        // The scan path is handed the form alone: with the overlay
        // dropped there is no hash map left to look a row up in, over
        // any number of scans.
        let form = OverlayScan::new(&overlay, &shard);
        drop(overlay);
        for _ in 0..3 {
            let (reached, scanned) = scan(Some(&form));
            assert_eq!(reached, want);
            // One per (live row, tile) pair, as without an overlay, and
            // one per live row with inserts.
            assert_eq!(scanned, row_tile_pairs + n.div_ceil(3));
        }
    }

    #[test]
    fn scan_form_lists_exactly_the_rows_that_carry_each_kind() {
        use cgraph_graph::delta::EdgeUpdate;
        // Shard 0 of two over 48 vertices: a ring over 0..24 and an edge
        // from each of its vertices to 24..28. A remote target is a
        // boundary vertex (24..28, a slot) or not (28..48, spilled), and
        // sources 24..48 are not this shard's, so the form leaves them
        // out.
        let base = |v: u64, t: u64| v < 24 && (t == 24 + v % 4 || t == (v + 1) % 24);
        let mut g: EdgeList =
            (0..24u64).flat_map(|v| [(v, 24 + v % 4), (v, (v + 1) % 24)]).collect();
        g.set_num_vertices(48);
        let part = RangePartition::by_vertices(48, 2);
        let shard = Shard::build(0, &part, g.edges(), ConsolidationPolicy::default());
        let lists = |l: &RowLists<u32>| -> Vec<(u32, Vec<u32>)> {
            (0..l.rows.len()).map(|i| (l.rows[i], l.items[l.span(i)].to_vec())).collect()
        };

        // splitmix64: a seeded insert / delete / re-insert churn over a
        // small key space, so pairs collide and cancel often; half the
        // pairs are base edges.
        let mut z = 0x5EED_u64;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let mut d = DeltaOverlay::new();
        let (mut spilled, mut boundary, mut unlisted) = (false, false, false);
        for step in 0..4_000 {
            let src = next() % 32;
            let dst = match next() % 4 {
                0 => 24 + src % 4,
                1 => (src + 1) % 24,
                _ => next() % 48,
            };
            let u = if next() % 2 == 0 {
                EdgeUpdate::insert(src, dst)
            } else {
                EdgeUpdate::delete(src, dst)
            };
            d.apply(&u);
            let form = OverlayScan::new(&d, &shard);
            let mut rows: Vec<(VertexId, &DeltaRow)> =
                d.rows().filter(|&(v, _)| shard.is_local(v)).collect();
            rows.sort_unstable_by_key(|&(v, _)| v);
            let want_inserts: Vec<(u32, Vec<u32>)> = rows
                .iter()
                .filter(|(_, r)| !r.inserts().is_empty())
                .map(|&(v, r)| {
                    let slots =
                        r.inserts().iter().map(|&(t, _)| shard.slot_of(t).unwrap_or(NO_SLOT));
                    (shard.to_local(v), slots.collect())
                })
                .collect();
            let want_targets: Vec<VertexId> =
                rows.iter().flat_map(|(_, r)| r.inserts().iter().map(|&(t, _)| t)).collect();
            // Only deletes of base edges are listed, by slot, ascending.
            let want_deletes: Vec<(u32, Vec<u32>)> = rows
                .iter()
                .map(|&(v, r)| {
                    let dels = r.deletes().iter().filter(|&&t| base(v, t));
                    let mut slots: Vec<u32> = dels.map(|&t| shard.slot_of(t).unwrap()).collect();
                    slots.sort_unstable();
                    (shard.to_local(v), slots)
                })
                .filter(|(_, dels)| !dels.is_empty())
                .collect();
            unlisted |= rows.iter().any(|&(v, r)| r.deletes().iter().any(|&t| !base(v, t)));
            assert_eq!(lists(&form.inserts), want_inserts, "after step {step}: {u:?}");
            assert_eq!(form.insert_targets, want_targets, "after step {step}: {u:?}");
            assert_eq!(lists(&form.deletes), want_deletes, "after step {step}: {u:?}");
            spilled |= form.inserts.items.contains(&NO_SLOT);
            boundary |= form.inserts.items.iter().any(|&s| s >= 24 && s != NO_SLOT);
        }
        assert!(spilled && boundary, "the churn reaches both kinds of remote target");
        assert!(unlisted, "the churn deletes edges the base does not have");

        // An insert that cancels a row's last delete of a base edge
        // takes it off the delete list; a delete of an absent edge never
        // puts a row on it.
        let mut d = DeltaOverlay::new();
        d.apply(&EdgeUpdate::delete(7, 27));
        d.apply(&EdgeUpdate::delete(3, 27));
        d.apply(&EdgeUpdate::delete(7, 8));
        d.apply(&EdgeUpdate::delete(5, 40));
        assert_eq!(OverlayScan::new(&d, &shard).deletes.rows, [3, 7]);
        d.apply(&EdgeUpdate::insert(7, 27));
        let form = OverlayScan::new(&d, &shard);
        assert_eq!((&form.deletes.rows[..], &form.inserts.rows[..]), (&[3, 7][..], &[7][..]));
        d.apply(&EdgeUpdate::insert(7, 8));
        let form = OverlayScan::new(&d, &shard);
        assert_eq!((&form.deletes.rows[..], &form.inserts.rows[..]), (&[3][..], &[7][..]));
        assert!(d.row(7).is_some_and(|r| r.deletes().is_empty()));
    }

    #[test]
    fn one_query_one_hop() {
        // 0 -> 1 -> 2
        let g: EdgeList = [(0u64, 1u64), (1, 2)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 64);
        bf.seed(0, 0);
        bf.scan(&shard, None, |_, _| panic!("no remote on single shard"));
        let r = bf.advance();
        assert_eq!(r.active_lanes, m64(1));
        assert_eq!(r.new_per_lane[0], 1); // vertex 1
        assert_eq!(bf.frontier_word(1), 1);
        // second hop reaches 2
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert_eq!(r.new_per_lane[0], 1);
        // third hop: nothing new
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert!(r.active_lanes.is_zero());
    }

    #[test]
    fn two_queries_share_one_scan() {
        // Diamond: 0 -> 2, 1 -> 2, 2 -> 3. Queries from 0 and 1 meet at
        // 2 and must both discover 3 in the same pass.
        let g: EdgeList = [(0u64, 2u64), (1, 2), (2, 3)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 2);
        bf.seed(0, 0);
        bf.seed(1, 1);
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert_eq!(bf.frontier_word(2), 0b11, "both lanes reached vertex 2");
        assert_eq!(r.new_per_lane[0], 1);
        assert_eq!(r.new_per_lane[1], 1);
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert_eq!(bf.visited_word(3), 0b11);
        assert_eq!(r.new_per_lane[0], 1);
        assert_eq!(r.new_per_lane[1], 1);
    }

    #[test]
    fn visited_not_revisited() {
        // Cycle 0 -> 1 -> 0: after visiting both, traversal stops.
        let g: EdgeList = [(0u64, 1u64), (1, 0)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 64);
        bf.seed(0, 5);
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert_eq!(r.new_per_lane[5], 1);
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert!(r.active_lanes.is_zero(), "source must not be revisited");
    }

    #[test]
    fn remote_destinations_emitted_with_mask() {
        let g: EdgeList = [(0u64, 5u64), (1, 5)].into_iter().collect();
        let mut g = g;
        g.set_num_vertices(10);
        let part = RangePartition::by_vertices(10, 2);
        let shard = Shard::build(0, &part, g.edges(), ConsolidationPolicy::default());
        let mut bf = BitFrontier::new(&shard, 2);
        bf.seed(0, 0);
        bf.seed(1, 1);
        let mut remote = Vec::new();
        bf.scan(&shard, None, |t, w| remote.push((t, w[0])));
        // Both edges land in vertex 5's boundary slot, so the scan emits
        // it once with the lanes ORed. (Before the slot table the scan
        // emitted once per remote *edge* — `[(5, 0b01), (5, 0b10)]` —
        // and the engine coalesced in a hash map.)
        assert_eq!(remote, vec![(5, 0b11)]);
        // The boundary row was zeroed by the emission: a second scan of
        // the same frontier emits the same thing, not an accumulation.
        let mut again = Vec::new();
        bf.scan(&shard, None, |t, w| again.push((t, w[0])));
        assert_eq!(again, remote);
    }

    #[test]
    fn absorb_feeds_next_frontier() {
        let g: EdgeList = [(5u64, 6u64)].into_iter().collect();
        let mut g = g;
        g.set_num_vertices(10);
        let part = RangePartition::by_vertices(10, 2);
        let shard = Shard::build(1, &part, g.edges(), ConsolidationPolicy::default());
        let mut bf = BitFrontier::new(&shard, 64);
        let mut batch = FrontierBatch::new(1);
        batch.push(5, &[0b100]);
        bf.absorb(&batch);
        let r = bf.advance();
        assert_eq!(r.active_lanes, m64(0b100));
        assert_eq!(bf.frontier_word(5), 0b100);
        // the absorbed vertex now traverses locally
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert_eq!(bf.visited_word(6), 0b100);
        assert_eq!(r.new_per_lane[2], 1);
    }

    #[test]
    fn per_lane_counts_match_visited() {
        let g: EdgeList = [(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 4)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 1);
        bf.seed(0, 0);
        let mut total = [1u64; 1]; // source counted
        for _ in 0..4 {
            bf.scan(&shard, None, |_, _| unreachable!());
            let r = bf.advance();
            total[0] += r.new_per_lane[0];
        }
        assert_eq!(total[0], 5);
        assert_eq!(bf.visited_per_lane()[0], 5);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_traversal() {
        let g: EdgeList = [(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 4)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 64);
        bf.seed(0, 0);
        bf.scan(&shard, None, |_, _| unreachable!());
        bf.advance();
        let (front, vis) = bf.snapshot_words();

        // Continue to completion, recording the trajectory.
        let mut rest = Vec::new();
        for _ in 0..3 {
            bf.scan(&shard, None, |_, _| unreachable!());
            rest.push(bf.advance());
        }
        let final_visited = bf.visited_per_lane();

        // Restore into *dirty* state (mid-superstep, next half-full)
        // and replay: the trajectory must be identical.
        let mut bf2 = BitFrontier::new(&shard, 64);
        bf2.seed(0, 0);
        bf2.scan(&shard, None, |_, _| unreachable!());
        bf2.restore_words(&front, &vis);
        for expect in &rest {
            bf2.scan(&shard, None, |_, _| unreachable!());
            assert_eq!(bf2.advance(), *expect);
        }
        assert_eq!(bf2.visited_per_lane(), final_visited);
    }

    #[test]
    fn clear_next_discards_partial_scan() {
        let g: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 64);
        bf.seed(0, 0);
        bf.scan(&shard, None, |_, _| unreachable!());
        bf.clear_next();
        let r = bf.advance();
        assert!(r.active_lanes.is_zero(), "cleared next must yield no discoveries");
    }

    #[test]
    fn wide_batch_lanes_above_64_traverse_independently() {
        // 0 -> 1 -> 2; lanes 0 and 100 traverse the same graph and
        // must see identical per-lane trajectories.
        let g: EdgeList = [(0u64, 1u64), (1, 2)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 128);
        assert_eq!(bf.width().bits(), 128);
        bf.seed(0, 0);
        bf.seed(0, 100);
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert!(r.active_lanes.get(0) && r.active_lanes.get(100));
        assert_eq!(r.new_per_lane[0], 1);
        assert_eq!(r.new_per_lane[100], 1);
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert_eq!(r.new_per_lane[100], 1);
        let visited = bf.visited_per_lane();
        assert_eq!(visited[0], 3);
        assert_eq!(visited[100], 3);
        assert_eq!(visited[1], 0);
    }

    #[test]
    fn mask_frontier_retires_wide_lanes() {
        let g: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::new(&shard, 128);
        bf.seed(0, 3);
        bf.seed(0, 90);
        // Keeping every live lane is a no-op (early-out path).
        bf.mask_frontier(&LaneMask::all(128));
        assert!(!bf.frontier_empty());
        // Retire lane 90 only.
        let mut keep = LaneMask::zero(LaneWidth::new(128).unwrap());
        keep.set(3);
        bf.mask_frontier(&keep);
        bf.scan(&shard, None, |_, _| unreachable!());
        let r = bf.advance();
        assert!(r.active_lanes.get(3));
        assert!(!r.active_lanes.get(90), "retired lane must not advance");
    }

    #[test]
    #[should_panic(expected = "snapshot width mismatch")]
    fn restore_rejects_width_mismatch() {
        let g: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let shard = single_shard(&g);
        let narrow = BitFrontier::new(&shard, 64);
        let (front, vis) = narrow.snapshot_words();
        let mut wide = BitFrontier::new(&shard, 128);
        wide.restore_words(&front, &vis);
    }
}
