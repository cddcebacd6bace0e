//! Sorted out-rows: the one form every shard build reads.
//!
//! [`SortedRows`] holds one `(target, weight)` run per source vertex of
//! a range, sorted by target, duplicates in input order — what the
//! edge-set build's two passes ([`crate::edge_set`]) take apart into
//! tiles without sorting anything. Ingest groups an edge list into it,
//! a fold streams an old shard's tiles and overlay into it, a restore
//! fills it from a snapshot's rows.
//!
//! A weight column is kept only where some weight is not 1.0 (the
//! rule a tile follows too): rows of an unweighted graph cost their
//! targets alone, 8 bytes an edge.

use crate::edge::Edge;
use crate::types::{VertexId, VertexRange, Weight};

/// The out-rows of a vertex range, one run per vertex: row `r`
/// (global `span.start + r`) is `targets[offsets[r]..offsets[r + 1]]`
/// with its weights alongside, sorted by target; duplicate targets keep
/// their input order.
#[derive(Debug)]
pub struct SortedRows {
    span: VertexRange,
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    /// Aligned with `targets`, or empty while every weight is 1.0.
    weights: Vec<Weight>,
}

/// Appends `run` to `column`, the weights of the `len` edges before it
/// — a column left empty while all of those are 1.0. It starts, filled
/// with 1.0 up to `len` and with room for `capacity` weights, at the
/// first weight that is not.
pub(crate) fn extend_weights(
    column: &mut Vec<Weight>,
    len: usize,
    capacity: usize,
    run: &[Weight],
) {
    if column.is_empty() {
        if run.iter().all(|&w| w == 1.0) {
            return;
        }
        column.reserve_exact(capacity.max(len + run.len()));
        column.resize(len, 1.0);
    }
    debug_assert_eq!(column.len(), len, "a weight column out of step with its edges");
    column.extend_from_slice(run);
}

impl SortedRows {
    /// No rows yet over `span`, with room for `edges` edges. Rows are
    /// appended in vertex order: [`SortedRows::push`] adds to the open
    /// row, [`SortedRows::end_row`] closes it.
    pub fn with_capacity(span: VertexRange, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(span.len() as usize + 1);
        offsets.push(0);
        Self { span, offsets, targets: Vec::with_capacity(edges), weights: Vec::new() }
    }

    /// Groups `edges` into the rows of each of `spans` (ascending and
    /// disjoint): one pass counts each source's edges (and notes the
    /// spans that need a weight column), a second scatters every edge
    /// into its span's arrays in input order, and only a row that
    /// arrived out of target order is stably sorted. Edges whose source
    /// lies in no span are skipped. The list is read twice however many
    /// spans there are.
    pub fn group(spans: &[VertexRange], edges: &[Edge]) -> Vec<Self> {
        debug_assert!(spans.windows(2).all(|w| w[0].end <= w[1].start), "spans out of order");
        // The span owning `v` and `v`'s row in it; the last span found is
        // tried first, as a list grouped by source names it again.
        let last = std::cell::Cell::new(0);
        let owner = |v: VertexId| {
            if !spans.get(last.get()).is_some_and(|s| s.contains(v)) {
                last.set(spans.partition_point(|s| s.end <= v));
            }
            let i = last.get();
            spans.get(i).filter(|s| s.contains(v)).map(|s| (i, (v - s.start) as usize))
        };
        let mut groups: Vec<Self> = spans
            .iter()
            .map(|&span| Self {
                span,
                offsets: vec![0; span.len() as usize + 1],
                targets: Vec::new(),
                weights: Vec::new(),
            })
            .collect();
        let mut weighted = vec![false; groups.len()];
        for e in edges {
            if let Some((i, r)) = owner(e.src) {
                groups[i].offsets[r + 1] += 1;
                weighted[i] |= e.weight != 1.0;
            }
        }
        let mut cursors = Vec::with_capacity(groups.len());
        for (g, &weighted) in groups.iter_mut().zip(&weighted) {
            let rows = g.offsets.len() - 1;
            for r in 0..rows {
                g.offsets[r + 1] += g.offsets[r];
            }
            cursors.push(g.offsets[..rows].to_vec());
            g.targets = vec![0; g.offsets[rows]];
            if weighted {
                g.weights = vec![0.0; g.offsets[rows]];
            }
        }
        for e in edges {
            if let Some((i, r)) = owner(e.src) {
                let at = &mut cursors[i][r];
                groups[i].targets[*at] = e.dst;
                if weighted[i] {
                    groups[i].weights[*at] = e.weight;
                }
                *at += 1;
            }
        }
        drop(cursors);
        let mut scratch = Vec::new();
        for g in &mut groups {
            for r in 0..g.span.len() as usize {
                g.sort_row(r, &mut scratch);
            }
        }
        groups
    }

    /// Appends one edge to the open row.
    #[inline]
    pub fn push(&mut self, target: VertexId, weight: Weight) {
        if weight != 1.0 || !self.weights.is_empty() {
            let (len, capacity) = (self.targets.len(), self.targets.capacity());
            extend_weights(&mut self.weights, len, capacity, &[weight]);
        }
        self.targets.push(target);
    }

    /// Closes the open row (the next vertex's row opens), stably sorting
    /// it if it arrived out of target order.
    ///
    /// # Panics
    ///
    /// Panics when every vertex of the span already has its row.
    pub fn end_row(&mut self) {
        assert!(self.offsets.len() <= self.span.len() as usize, "more rows than {:?}", self.span);
        self.offsets.push(self.targets.len());
        self.sort_row(self.offsets.len() - 2, &mut Vec::new());
    }

    /// Stably sorts row `r` by target unless it already is sorted.
    fn sort_row(&mut self, r: usize, scratch: &mut Vec<(VertexId, Weight)>) {
        let span = self.offsets[r]..self.offsets[r + 1];
        if self.targets[span.clone()].is_sorted() {
            return;
        }
        if self.weights.is_empty() {
            // Duplicates of an unweighted row are indistinguishable.
            self.targets[span].sort_unstable();
            return;
        }
        scratch.clear();
        scratch.extend(
            self.targets[span.clone()]
                .iter()
                .copied()
                .zip(self.weights[span.clone()].iter().copied()),
        );
        scratch.sort_by_key(|e| e.0);
        for (i, &(t, w)) in span.zip(scratch.iter()) {
            self.targets[i] = t;
            self.weights[i] = w;
        }
    }

    /// The source vertices the rows cover.
    #[inline]
    pub fn span(&self) -> VertexRange {
        self.span
    }

    /// Total edges in all rows.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of global source `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.row(v).0.len()
    }

    /// Targets and weights of global source `v`'s row; the weights are
    /// empty when the rows carry no weight column (every weight 1.0).
    #[inline]
    pub fn row(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let r = self.span.to_local(v) as usize;
        let span = self.offsets[r]..self.offsets[r + 1];
        (&self.targets[span.clone()], self.weights.get(span).unwrap_or_default())
    }

    /// Every target of every row, rows in vertex order.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The weight column aligned with [`SortedRows::targets`], empty
    /// when every weight is 1.0.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Every edge, rows in vertex order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.span.iter().zip(self.offsets.windows(2)).flat_map(move |(v, run)| {
            (run[0]..run[1]).map(move |i| {
                Edge::weighted(v, self.targets[i], self.weights.get(i).copied().unwrap_or(1.0))
            })
        })
    }

    /// True once every vertex of the span has its row.
    pub(crate) fn is_complete(&self) -> bool {
        self.offsets.len() == self.span.len() as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_group_by_source_and_sort_only_what_arrived_unsorted() {
        let e = |s, t, w| Edge::weighted(s, t, w);
        // Source 9 lies outside the span and is skipped.
        let edges =
            [e(3, 7, 1.0), e(2, 5, 2.0), e(3, 1, 3.0), e(9, 0, 4.0), e(3, 7, 5.0), e(3, 1, 6.0)];
        let rows = &SortedRows::group(&[VertexRange::new(2, 5)], &edges)[0];
        assert_eq!(rows.num_edges(), 5);
        assert_eq!(rows.row(2), (&[5u64][..], &[2.0f32][..]));
        // Stable: each duplicate pair keeps its input order.
        assert_eq!(rows.row(3), (&[1u64, 1, 7, 7][..], &[3.0f32, 6.0, 1.0, 5.0][..]));
        assert_eq!(rows.degree(4), 0);
        // Grouped over several spans in one go, each span gets the rows
        // it gets alone; a source in no span (5) is skipped.
        let spans = [VertexRange::new(0, 2), VertexRange::new(2, 5), VertexRange::new(6, 10)];
        let mut more = edges.to_vec();
        more.extend([e(5, 1, 7.0), e(0, 4, 8.0), e(9, 0, 9.0)]);
        let grouped = SortedRows::group(&spans, &more);
        assert_eq!(grouped.len(), 3);
        for (span, rows) in spans.iter().zip(&grouped) {
            let alone = &SortedRows::group(&[*span], &more)[0];
            assert_eq!(rows.span(), *span);
            for v in span.iter() {
                assert_eq!(rows.row(v), alone.row(v), "vertex {v}");
            }
        }
        assert_eq!(grouped[2].row(9), (&[0u64, 0][..], &[4.0f32, 9.0][..]));
        assert_eq!(grouped.iter().map(SortedRows::num_edges).sum::<usize>(), more.len() - 1);
        let listed: Vec<Edge> = rows.edges().collect();
        assert_eq!(listed[0], e(2, 5, 2.0));
        assert_eq!(listed.len(), 5);
        // Pushed row by row, an unsorted row is sorted as it closes.
        let mut pushed = SortedRows::with_capacity(VertexRange::new(2, 5), 5);
        pushed.end_row();
        for (t, w) in [(7, 1.0), (1, 3.0), (7, 5.0), (1, 6.0)] {
            pushed.push(t, w);
        }
        pushed.end_row();
        pushed.end_row();
        assert_eq!(pushed.row(3), rows.row(3));
        assert!(pushed.is_complete());
    }
}
