//! Edge-set based graph representation (§3.2).
//!
//! Each subgraph partition is "further converted into a set of
//! edge-sets. Each edge-set contains vertices within a certain range by
//! vertex ID" — i.e. the adjacency matrix is blocked into a 2D grid of
//! (source-range × destination-range) tiles, each tile stored as a
//! small CSR. Traversing out-edges scans tiles left-to-right within a
//! row stripe (Fig. 3a), so all destination writes of one tile land in
//! one destination range — the cache-locality argument of the paper.
//!
//! The grid is `side × side` with `side = ⌈√(E / target)⌉`, so a tile
//! holds about the [`ConsolidationPolicy::target_edges_per_set`] edges
//! the policy names. Row stripes are chosen by *evenly distributing the
//! degrees* ("we divide the vertices of each subgraph into a set of
//! ranges by evenly distributing the degrees", §3.2); column ranges
//! split the destination span evenly by vertex count.
//!
//! Real sparse graphs leave many tiles nearly empty, so the paper
//! **consolidates** small adjacent tiles "both horizontally and
//! vertically". [`ConsolidationPolicy`] controls the threshold; the
//! build performs a horizontal pass (within a stripe) and then a
//! vertical pass (across stripes, same column range).
//!
//! # Two passes over sorted rows
//!
//! The build follows the paper's two scans ("we first obtain vertex
//! degrees … we scan the edge list again and allocate each edge to an
//! edge-set") over [`SortedRows`]: one run of `(target, weight)` per
//! source vertex, sorted by target, duplicates in input order.
//!
//! 1. **Count.** The degrees fix the grid. A row's share of one column
//!    range is a contiguous run of its sorted targets, found with
//!    `partition_point`, so counting every cell costs a few binary
//!    searches per row. Consolidation decides on those counts alone.
//! 2. **Place.** Each surviving tile allocates its `row_offsets` and
//!    `columns` at their exact size and copies each of its rows' runs
//!    in, row by row, each target mapped to its column.
//!
//! A tile needs no sort: its rows are visited in vertex order and each
//! run is already sorted by target with duplicates in input order —
//! exactly what a stable `(src, dst)` sort of the tile's edges yields.
//! No per-cell copy of the edges is made.
//!
//! # One column per edge
//!
//! A tile stores each edge once, as a 4-byte *column* its owner
//! defines: [`EdgeSetGraph::from_rows`] takes the map from target to
//! column. A standalone graph ([`EdgeSetGraph::build`]) uses the target
//! itself; a shard uses the target's accumulator slot and derives the
//! target back from it. A tile keeps a weight column only when one of
//! its weights is not 1.0.

use crate::edge::Edge;
use crate::rows::{extend_weights, SortedRows};
use crate::types::{VertexId, VertexRange, Weight};

/// One edge-set tile: a CSR over `row_range × col_range`.
#[derive(Clone, Debug)]
pub struct EdgeSet {
    /// Source vertices covered (global IDs).
    pub row_range: VertexRange,
    /// Destination vertices covered (global IDs).
    pub col_range: VertexRange,
    /// `row_offsets[r]..row_offsets[r+1]` indexes `columns` for local
    /// row `r` (`row_range.start + r` globally).
    row_offsets: Vec<u32>,
    /// One column per edge, rows in target order: what the target maps
    /// to under the map the tile was built with.
    columns: Vec<u32>,
    /// Aligned with `columns`, or empty when every weight of the tile
    /// is 1.0.
    weights: Vec<Weight>,
}

impl EdgeSet {
    /// Number of edges in the tile.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.columns.len()
    }

    /// The index range of global source `v`'s edges in this tile's edge
    /// arrays (empty if `v` is outside the row range).
    #[inline]
    pub fn row_span(&self, v: VertexId) -> std::ops::Range<usize> {
        if !self.row_range.contains(v) {
            return 0..0;
        }
        let r = self.row_range.to_local(v) as usize;
        self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize
    }

    /// The columns of global source `v`'s edges that land in this
    /// tile's column range, in target order. Empty if `v` is outside
    /// the row range.
    #[inline]
    pub fn columns(&self, v: VertexId) -> &[u32] {
        &self.columns[self.row_span(v)]
    }

    /// The weight of the tile's `i`-th edge (an index of
    /// [`EdgeSet::row_span`]).
    #[inline]
    pub fn weight(&self, i: usize) -> Weight {
        debug_assert!(i < self.columns.len());
        self.weights.get(i).copied().unwrap_or(1.0)
    }

    /// Iterates `(source, columns)` for non-empty rows, `source` a
    /// global ID.
    pub fn iter_rows(&self) -> impl Iterator<Item = (VertexId, &[u32])> + '_ {
        (0..self.row_range.len() as usize).filter_map(move |r| {
            let a = self.row_offsets[r] as usize;
            let b = self.row_offsets[r + 1] as usize;
            (a != b).then(|| (self.row_range.to_global(r as u32), &self.columns[a..b]))
        })
    }

    /// Heap footprint in bytes: the sum of the tile's arrays.
    pub fn size_bytes(&self) -> usize {
        (self.row_offsets.len() + self.columns.len() + self.weights.len()) * 4
    }

    /// The raw storage arrays `(row_offsets, columns, weights)` — what
    /// the bit-frontier scan indexes by local row. `weights` is empty
    /// when every weight of the tile is 1.0.
    pub fn raw_parts(&self) -> (&[u32], &[u32], &[Weight]) {
        (&self.row_offsets, &self.columns, &self.weights)
    }
}

/// Tile sizing and consolidation parameters.
#[derive(Clone, Copy, Debug)]
pub struct ConsolidationPolicy {
    /// Target number of edges per tile before consolidation — the
    /// paper sizes this so "the vertex values and associated edges fit
    /// into the last level cache".
    pub target_edges_per_set: usize,
    /// Tiles smaller than this are merged with a neighbour.
    pub min_edges_per_set: usize,
    /// Enable the horizontal (same stripe, adjacent column ranges) pass.
    pub horizontal: bool,
    /// Enable the vertical (adjacent stripes, same column range) pass.
    pub vertical: bool,
}

impl Default for ConsolidationPolicy {
    fn default() -> Self {
        Self {
            // ~ (vertex values + edges) of one tile ≈ a few MB LLC slice
            target_edges_per_set: 1 << 18,
            min_edges_per_set: 1 << 12,
            horizontal: true,
            vertical: true,
        }
    }
}

impl ConsolidationPolicy {
    /// A policy that produces exactly one tile — the flat-CSR ablation
    /// baseline (A3 in DESIGN.md).
    pub fn flat() -> Self {
        Self {
            target_edges_per_set: usize::MAX,
            min_edges_per_set: 0,
            horizontal: false,
            vertical: false,
        }
    }

    /// No consolidation, explicit tile target — used by tests that
    /// verify raw grid structure.
    pub fn grid(target_edges_per_set: usize) -> Self {
        Self { target_edges_per_set, min_edges_per_set: 0, horizontal: false, vertical: false }
    }
}

/// The stripe/column skeleton computed before tiling.
#[derive(Clone, Debug)]
pub struct EdgeSetLayout {
    /// Row stripes (source ranges), even by degree mass.
    pub row_ranges: Vec<VertexRange>,
    /// Column ranges (destination ranges), even by vertex count.
    pub col_ranges: Vec<VertexRange>,
}

/// A blocked out-edge view of a (sub)graph: edge-set tiles in row-major
/// order (all tiles of stripe 0 left→right, then stripe 1, …).
#[derive(Clone, Debug)]
pub struct EdgeSetGraph {
    sets: Vec<EdgeSet>,
    layout: EdgeSetLayout,
    num_edges: usize,
}

/// Splits `span` into at most `k` ranges of about equal total
/// `mass(v)`: each range takes whole vertices until it holds its share
/// of the mass still unassigned (always at least one vertex), and the
/// last takes the rest.
fn split_by_mass(span: VertexRange, mass: impl Fn(VertexId) -> u64, k: usize) -> Vec<VertexRange> {
    let mut remaining: u64 = span.iter().map(&mass).sum();
    let mut ranges = Vec::with_capacity(k.max(1));
    let mut start = span.start;
    for left in (2..=k as u64).rev() {
        let share = remaining.div_ceil(left);
        let (mut end, mut acc) = (start, 0u64);
        while end < span.end && (end == start || acc < share) {
            acc += mass(end);
            end += 1;
        }
        if end == span.end {
            break;
        }
        ranges.push(VertexRange::new(start, end));
        remaining -= acc;
        start = end;
    }
    ranges.push(VertexRange::new(start, span.end));
    ranges
}

/// Splits `span` into `k` ranges of (nearly) equal vertex count.
fn split_even(span: VertexRange, k: usize) -> Vec<VertexRange> {
    let k = k.max(1) as u64;
    let n = span.len();
    let base = n / k;
    let rem = n % k;
    let mut ranges = Vec::with_capacity(k as usize);
    let mut start = span.start;
    for i in 0..k {
        let sz = base + if i < rem { 1 } else { 0 };
        let end = start + sz;
        ranges.push(VertexRange::new(start, end));
        start = end;
    }
    ranges
}

impl EdgeSetGraph {
    /// Builds the blocked representation for edges whose sources fall
    /// in `row_span` and destinations in `col_span`: groups them into
    /// [`SortedRows`], then [`EdgeSetGraph::from_rows`] with each
    /// target its own column.
    ///
    /// Panics if `col_span` reaches past `u32::MAX`; (debug) if an edge
    /// endpoint lies outside its span.
    pub fn build(
        edges: &[Edge],
        row_span: VertexRange,
        col_span: VertexRange,
        policy: ConsolidationPolicy,
    ) -> Self {
        assert!(col_span.end <= u64::from(u32::MAX), "columns address vertices by u32");
        let rows = &SortedRows::group(&[row_span], edges)[0];
        debug_assert_eq!(rows.num_edges(), edges.len(), "an edge source outside {row_span:?}");
        Self::from_rows(rows, col_span, policy, |t| t as u32)
    }

    /// Builds the blocked representation of `rows` (every vertex of
    /// their span must have its row), whose targets fall in
    /// `col_span`, in the two passes the module docs describe; each
    /// edge is stored as `column(target)`.
    pub fn from_rows(
        rows: &SortedRows,
        col_span: VertexRange,
        policy: ConsolidationPolicy,
        column: impl Fn(VertexId) -> u32,
    ) -> Self {
        assert!(rows.is_complete(), "rows end before {:?} does", rows.span());
        // 1. Row degrees ("we first obtain vertex degrees …") are the
        //    rows' lengths.
        let (row_span, num_edges) = (rows.span(), rows.num_edges());
        // 2. The policy's tile size fixes the grid: `side × side` tiles
        //    of about `target` edges each, `side = ⌈√(E / target)⌉` —
        //    stripes of even degree mass, columns of even width.
        let target = (policy.target_edges_per_set as u64).max(1);
        let tiles = (num_edges as u64).div_ceil(target).max(1);
        let root = tiles.isqrt();
        let side = (root + u64::from(root * root < tiles)) as usize;
        let row_ranges = split_by_mass(row_span, |v| rows.degree(v) as u64, side);
        let col_ranges = split_even(col_span, side);

        // 3. Count each cell ("we scan the edge list again and allocate
        //    each edge to an edge-set"): a row's share of a column range
        //    is one run of its sorted targets.
        let ncols = col_ranges.len();
        let mut cells = vec![0usize; row_ranges.len() * ncols];
        for (ri, row) in row_ranges.iter().enumerate() {
            for v in row.iter() {
                let mut rest = rows.row(v).0;
                while let Some(&t) = rest.first() {
                    debug_assert!(col_span.contains(t), "target {t} outside {col_span:?}");
                    let ci = col_ranges.partition_point(|c| c.end <= t);
                    let run = rest.partition_point(|&x| x < col_ranges[ci].end);
                    cells[ri * ncols + ci] += run;
                    rest = &rest[run..];
                }
            }
        }

        // 4. Consolidate horizontally within each stripe.
        #[derive(Debug)]
        struct ProtoSet {
            row: VertexRange,
            cols: (usize, usize), // inclusive col index range
            edges: usize,
        }
        let mut protos: Vec<Vec<ProtoSet>> = Vec::with_capacity(row_ranges.len());
        for (ri, row) in row_ranges.iter().enumerate() {
            let mut stripe: Vec<ProtoSet> = Vec::new();
            for ci in 0..ncols {
                let edges = cells[ri * ncols + ci];
                let merge = policy.horizontal
                    && !stripe.is_empty()
                    && (edges < policy.min_edges_per_set
                        || stripe.last().unwrap().edges < policy.min_edges_per_set);
                if merge {
                    let last = stripe.last_mut().unwrap();
                    last.cols.1 = ci;
                    last.edges += edges;
                } else {
                    stripe.push(ProtoSet { row: *row, cols: (ci, ci), edges });
                }
            }
            protos.push(stripe);
        }

        // 5. Consolidate vertically: a small stripe-cell merges into the
        //    col-aligned cell of the previous stripe when both are small.
        if policy.vertical {
            for ri in 1..protos.len() {
                let (head, tail) = protos.split_at_mut(ri);
                let prev = &mut head[ri - 1];
                let cur = &mut tail[0];
                if prev.len() == 1 && cur.len() == 1 {
                    let small = prev[0].edges < policy.min_edges_per_set
                        || cur[0].edges < policy.min_edges_per_set;
                    let aligned =
                        prev[0].cols == cur[0].cols && prev[0].row.end == cur[0].row.start;
                    if small && aligned {
                        let mut merged = prev.pop().unwrap();
                        let top = cur.remove(0);
                        merged.row = VertexRange::new(merged.row.start, top.row.end);
                        merged.edges += top.edges;
                        cur.push(merged);
                    }
                }
            }
            protos.retain(|s| !s.is_empty());
        }

        // 6. Place each tile's runs (row-major), exactly sized; a weight
        //    column starts at the tile's first weight that is not 1.0.
        let mut sets = Vec::new();
        for p in protos.into_iter().flatten().filter(|p| p.edges > 0) {
            let col = VertexRange::new(col_ranges[p.cols.0].start, col_ranges[p.cols.1].end);
            let mut row_offsets = Vec::with_capacity(p.row.len() as usize + 1);
            let mut columns = Vec::with_capacity(p.edges);
            let mut weights = Vec::new();
            row_offsets.push(0);
            for v in p.row.iter() {
                let (ts, ws) = rows.row(v);
                let lo = ts.partition_point(|&x| x < col.start);
                let hi = lo + ts[lo..].partition_point(|&x| x < col.end);
                if !ws.is_empty() {
                    extend_weights(&mut weights, columns.len(), p.edges, &ws[lo..hi]);
                }
                columns.extend(ts[lo..hi].iter().map(|&t| column(t)));
                row_offsets.push(columns.len() as u32);
            }
            debug_assert_eq!(columns.len(), p.edges);
            sets.push(EdgeSet { row_range: p.row, col_range: col, row_offsets, columns, weights });
        }
        let layout = EdgeSetLayout { row_ranges, col_ranges };
        Self { sets, layout, num_edges }
    }

    /// Builds with one tile per graph — flat CSR equivalent.
    pub fn flat(edges: &[Edge], row_span: VertexRange, col_span: VertexRange) -> Self {
        Self::build(edges, row_span, col_span, ConsolidationPolicy::flat())
    }

    /// All tiles in row-major scan order (the "left to right" traversal
    /// order of Fig. 3a).
    #[inline]
    pub fn sets(&self) -> &[EdgeSet] {
        &self.sets
    }

    /// The stripe/column skeleton.
    #[inline]
    pub fn layout(&self) -> &EdgeSetLayout {
        &self.layout
    }

    /// Total edges stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Collects the columns of `v`'s edges across all tiles, sorted —
    /// its out-neighbours in a graph from [`EdgeSetGraph::build`] (test /
    /// debugging aid — engine loops iterate tiles directly).
    pub fn out_columns(&self, v: VertexId) -> Vec<u32> {
        let mut out: Vec<u32> = self.sets.iter().flat_map(|s| s.columns(v)).copied().collect();
        out.sort_unstable();
        out
    }

    /// Heap footprint in bytes: the sum of the tiles' arrays.
    pub fn size_bytes(&self) -> usize {
        self.sets.iter().map(|s| s.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeList;

    fn edges(n: u64, pairs: &[(u64, u64)]) -> (EdgeList, VertexRange) {
        let mut l = EdgeList::with_num_vertices(n);
        for &(s, t) in pairs {
            l.push_pair(s, t);
        }
        (l, VertexRange::new(0, n))
    }

    #[test]
    fn flat_matches_input() {
        let (l, span) = edges(6, &[(0, 1), (0, 5), (2, 3), (5, 0)]);
        let g = EdgeSetGraph::flat(l.edges(), span, span);
        assert_eq!(g.sets().len(), 1);
        assert_eq!(g.out_columns(0), vec![1, 5]);
        assert_eq!(g.out_columns(5), vec![0]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn grid_preserves_all_edges() {
        let (l, span) = edges(
            32,
            &(0..32u64)
                .flat_map(|s| (0..32u64).filter(move |t| (s * 7 + t) % 5 == 0).map(move |t| (s, t)))
                .collect::<Vec<_>>(),
        );
        let g = EdgeSetGraph::build(l.edges(), span, span, ConsolidationPolicy::grid(16));
        assert!(g.sets().len() > 1, "expected multiple tiles");
        let total: usize = g.sets().iter().map(|s| s.num_edges()).sum();
        assert_eq!(total, l.len());
        // Per-vertex adjacency identical to flat.
        let flat = EdgeSetGraph::flat(l.edges(), span, span);
        for v in 0..32u64 {
            assert_eq!(g.out_columns(v), flat.out_columns(v), "vertex {v}");
        }
    }

    #[test]
    fn tiles_respect_ranges() {
        let (l, span) = edges(64, &(0..64u64).map(|v| (v, (v * 17 + 3) % 64)).collect::<Vec<_>>());
        let g = EdgeSetGraph::build(l.edges(), span, span, ConsolidationPolicy::grid(8));
        for s in g.sets() {
            for (src, ts) in s.iter_rows() {
                assert!(s.row_range.contains(src));
                for &t in ts {
                    assert!(s.col_range.contains(t.into()), "{t} outside {:?}", s.col_range);
                }
            }
        }
    }

    #[test]
    fn consolidation_reduces_tile_count() {
        // Sparse graph → tiny tiles → consolidation should merge them.
        let pairs: Vec<(u64, u64)> = (0..256u64).map(|v| (v, (v + 1) % 256)).collect();
        let (l, span) = edges(256, &pairs);
        let grid = EdgeSetGraph::build(l.edges(), span, span, ConsolidationPolicy::grid(16));
        let consolidated = EdgeSetGraph::build(
            l.edges(),
            span,
            span,
            ConsolidationPolicy {
                target_edges_per_set: 16,
                min_edges_per_set: 8,
                horizontal: true,
                vertical: true,
            },
        );
        assert!(
            consolidated.sets().len() < grid.sets().len(),
            "{} !< {}",
            consolidated.sets().len(),
            grid.sets().len()
        );
        // Still lossless.
        for v in 0..256u64 {
            assert_eq!(consolidated.out_columns(v), grid.out_columns(v));
        }
    }

    #[test]
    fn subgraph_row_span() {
        // Rows restricted to [4, 8): a partition's local vertices.
        let mut l = EdgeList::with_num_vertices(16);
        for s in 4..8u64 {
            l.push_pair(s, (s + 5) % 16);
            l.push_pair(s, (s + 9) % 16);
        }
        let g = EdgeSetGraph::build(
            l.edges(),
            VertexRange::new(4, 8),
            VertexRange::new(0, 16),
            ConsolidationPolicy::default(),
        );
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.out_columns(4), vec![9, 13]);
        assert!(g.out_columns(0).is_empty());
    }

    #[test]
    fn empty_rows_skipped_in_iter() {
        let (l, span) = edges(8, &[(0, 1)]);
        let g = EdgeSetGraph::flat(l.edges(), span, span);
        let rows: Vec<_> = g.sets()[0].iter_rows().map(|(v, _)| v).collect();
        assert_eq!(rows, vec![0]);
    }

    #[test]
    fn split_even_covers_span() {
        let span = VertexRange::new(3, 20);
        let ranges = split_even(span, 5);
        assert_eq!(ranges.len(), 5);
        assert_eq!(ranges[0].start, 3);
        assert_eq!(ranges.last().unwrap().end, 20);
        let total: u64 = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, span.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn split_by_mass_shares_the_mass() {
        let span = VertexRange::new(0, 10);
        let mass = [5u64, 5, 5, 5, 1, 1, 1, 1, 1, 1];
        let ranges = split_by_mass(span, |v| mass[v as usize], 3);
        let masses: Vec<u64> =
            ranges.iter().map(|r| r.iter().map(|v| mass[v as usize]).sum()).collect();
        assert_eq!(masses, vec![10, 10, 6]);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!((ranges[0].start, ranges[2].end), (0, 10));
        // One vertex heavier than a share: it gets a stripe of its own
        // and the rest is shared among the stripes left.
        let heavy = [20u64, 1, 1, 1, 1];
        let ranges = split_by_mass(VertexRange::new(0, 5), |v| heavy[v as usize], 3);
        assert_eq!(ranges.iter().map(|r| r.len()).collect::<Vec<_>>(), vec![1, 2, 2]);
        // Fewer vertices than ranges asked for.
        assert_eq!(split_by_mass(VertexRange::new(0, 2), |_| 1, 5).len(), 2);
    }

    #[test]
    fn tiles_hold_about_their_target() {
        // A uniform graph: 4096 vertices × 16 pseudo-random out-edges.
        let n = 4096u64;
        let mut l = EdgeList::with_num_vertices(n);
        for v in 0..n {
            for j in 0..16u64 {
                l.push_pair(v, (v * 2_654_435_761 + j * 40_503 + j * j * 977) % n);
            }
        }
        let span = VertexRange::new(0, n);
        let e = l.len();
        for target in [e / 3, e / 9, e / 20, e / 100] {
            let g = EdgeSetGraph::build(l.edges(), span, span, ConsolidationPolicy::grid(target));
            let side = (1..).find(|s| s * s * target >= e).unwrap();
            assert_eq!(g.layout().row_ranges.len(), side, "target {target}");
            assert_eq!(g.layout().col_ranges.len(), side, "target {target}");
            assert_eq!(g.sets().len(), side * side, "target {target}");
            let largest = g.sets().iter().map(|s| s.num_edges()).max().unwrap();
            assert!(largest <= 2 * target, "a tile of {largest} edges against target {target}");
        }
        // The default policy on a graph below its target, and the flat
        // policy on any graph, make one tile.
        let default = EdgeSetGraph::build(l.edges(), span, span, ConsolidationPolicy::default());
        assert_eq!(default.sets().len(), 1);
        assert_eq!(EdgeSetGraph::flat(l.edges(), span, span).sets().len(), 1);
    }
}
