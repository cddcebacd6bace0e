//! Edge-delta overlays — the storage layer of the live mutation plane.
//!
//! # The delta/commit protocol
//!
//! The query plane freezes the graph at ingestion; this module is what
//! lets it move afterwards without ever showing a query a half-applied
//! write. The protocol has three stages:
//!
//! 1. **Buffer.** Callers describe changes as [`EdgeUpdate`]s grouped
//!    into [`UpdateBatch`]es. Buffered updates are *invisible*: no scan
//!    consults them, so queries keep reading the current snapshot.
//! 2. **Publish (overlay).** At `commit_epoch()` the service folds the
//!    buffered updates into one [`DeltaOverlay`] per partition — a
//!    per-source sorted adjacency delta (`inserts` rows plus `deletes`
//!    lists) keyed by the owning partition of the source vertex. Edge
//!    scans then consult the overlay *alongside* the base out-edge
//!    sets: base neighbours are filtered through the delete list
//!    and the insert row is appended, so the published graph is
//!    `(base ∖ deletes) ∪ inserts`. Publishing is cheap — the base
//!    edge-sets are shared untouched — and atomic: the engine value
//!    carrying the overlay replaces the previous one wholesale, and its
//!    `graph_epoch` is bumped.
//! 3. **Fold.** When the resident overlay outgrows a configured
//!    threshold, the commit instead rebuilds fresh edge-sets
//!    per partition from the effective adjacency (each touched row
//!    merged by [`DeltaRow::merge`]) and starts over with an empty
//!    overlay. A fold changes the physical layout, never the logical
//!    graph — answers at a given epoch are identical whichever side of
//!    the threshold the commit landed on.
//!
//! Within one overlay row the state of a `(src, dst)` pair is
//! last-update-wins: an insert cancels a pending delete of the same
//! edge (and vice versa), so a row never says both "inserted" and
//! "deleted" about one destination.

use crate::types::{VertexId, Weight};
use std::collections::HashMap;

/// One edge mutation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeUpdate {
    /// Insert (or re-weight) the edge `src -> dst`.
    Insert {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge weight (reachability ignores it; folds preserve it).
        weight: Weight,
    },
    /// Delete every `src -> dst` edge.
    Delete {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
}

impl EdgeUpdate {
    /// An insert with the default weight `1.0`.
    pub fn insert(src: VertexId, dst: VertexId) -> Self {
        EdgeUpdate::Insert { src, dst, weight: 1.0 }
    }

    /// An insert with an explicit weight.
    pub fn insert_weighted(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        EdgeUpdate::Insert { src, dst, weight }
    }

    /// A delete.
    pub fn delete(src: VertexId, dst: VertexId) -> Self {
        EdgeUpdate::Delete { src, dst }
    }

    /// The source vertex (the overlay is routed by its owner).
    pub fn src(&self) -> VertexId {
        match *self {
            EdgeUpdate::Insert { src, .. } | EdgeUpdate::Delete { src, .. } => src,
        }
    }

    /// The destination vertex.
    pub fn dst(&self) -> VertexId {
        match *self {
            EdgeUpdate::Insert { dst, .. } | EdgeUpdate::Delete { dst, .. } => dst,
        }
    }

    /// True for the insert variant.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert { .. })
    }
}

/// An ordered group of edge mutations submitted as one unit.
///
/// A batch is only a staging buffer — nothing becomes visible to
/// queries until the service commits an epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateBatch {
    updates: Vec<EdgeUpdate>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an insert with the default weight.
    pub fn insert(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.updates.push(EdgeUpdate::insert(src, dst));
        self
    }

    /// Appends an insert with an explicit weight.
    pub fn insert_weighted(&mut self, src: VertexId, dst: VertexId, weight: Weight) -> &mut Self {
        self.updates.push(EdgeUpdate::insert_weighted(src, dst, weight));
        self
    }

    /// Appends a delete.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.updates.push(EdgeUpdate::delete(src, dst));
        self
    }

    /// Appends an arbitrary update.
    pub fn push(&mut self, u: EdgeUpdate) -> &mut Self {
        self.updates.push(u);
        self
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The buffered updates, in submission order.
    pub fn updates(&self) -> &[EdgeUpdate] {
        &self.updates
    }

    /// Consumes the batch into its update vector.
    pub fn into_updates(self) -> Vec<EdgeUpdate> {
        self.updates
    }
}

impl FromIterator<EdgeUpdate> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = EdgeUpdate>>(iter: I) -> Self {
        Self { updates: iter.into_iter().collect() }
    }
}

/// The adjacency delta of one source vertex: destinations inserted
/// (sorted, with weights) and destinations deleted (sorted).
///
/// The two lists are disjoint — [`DeltaOverlay::apply`] maintains
/// last-update-wins, so a destination is inserted *or* deleted, never
/// both.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaRow {
    inserts: Vec<(VertexId, Weight)>,
    deletes: Vec<VertexId>,
}

impl DeltaRow {
    /// Inserted out-edges of this source, sorted by destination.
    pub fn inserts(&self) -> &[(VertexId, Weight)] {
        &self.inserts
    }

    /// Deleted destinations of this source, sorted.
    pub fn deletes(&self) -> &[VertexId] {
        &self.deletes
    }

    /// True when the base edge to `t` has been deleted (or re-inserted
    /// with a new weight, which supersedes the base copy at fold time).
    pub fn is_deleted(&self, t: VertexId) -> bool {
        self.deletes.binary_search(&t).is_ok()
    }

    /// True when this row re-inserts an edge to `t` (overriding any
    /// base copy's weight).
    pub fn overrides(&self, t: VertexId) -> bool {
        self.inserts.binary_search_by_key(&t, |e| e.0).is_ok()
    }

    /// Entries in this row (inserts + deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when the row carries no delta.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// The effective out-row of this row's source: `base` (sorted by
    /// destination, duplicates in stored order) without deleted or
    /// re-inserted destinations, merged by destination with the insert
    /// row. The surviving base destinations and the inserted ones are
    /// disjoint, so the merge is a plain walk — base duplicates keep
    /// their order and nothing is collected on the way.
    pub fn merge<'a, I>(&'a self, base: I) -> impl Iterator<Item = (VertexId, Weight)> + 'a
    where
        I: IntoIterator<Item = (VertexId, Weight)>,
        I::IntoIter: 'a,
    {
        let mut base = base.into_iter().peekable();
        let (mut ins, mut del) = (0, 0);
        std::iter::from_fn(move || loop {
            let next_insert = self.inserts.get(ins).copied();
            let Some(&(t, w)) = base.peek() else {
                ins += 1;
                return next_insert;
            };
            while self.deletes.get(del).is_some_and(|&d| d < t) {
                del += 1;
            }
            let dropped = self.deletes.get(del) == Some(&t);
            match next_insert {
                Some(e) if e.0 == t => {
                    base.next(); // superseded by the insert, emitted in turn
                }
                Some(e) if e.0 < t => {
                    ins += 1;
                    return Some(e);
                }
                _ if dropped => {
                    base.next();
                }
                _ => {
                    base.next();
                    return Some((t, w));
                }
            }
        })
    }
}

/// One partition's resident adjacency delta: a [`DeltaRow`] per source
/// vertex that has pending edge changes.
///
/// The overlay is immutable once published — commits build a new one
/// (cloning the old and applying the freshly buffered updates) and swap
/// it in with the new engine value, so in-flight scans keep reading the
/// overlay of their admission epoch.
///
/// This is the *write side*: a map that `apply` can edit in any order.
/// The bit-frontier scan does not read it; it reads a source-ordered
/// form derived once per published value, beside the shard whose slots
/// it resolves to (`cgraph_core::bitfrontier::OverlayScan`).
#[derive(Clone, Debug, Default)]
pub struct DeltaOverlay {
    rows: HashMap<VertexId, DeltaRow>,
    num_inserts: usize,
    num_deletes: usize,
}

impl DeltaOverlay {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one update, keeping per-destination state
    /// last-update-wins (an insert cancels a pending delete of the same
    /// edge and vice versa).
    pub fn apply(&mut self, u: &EdgeUpdate) {
        let row = self.rows.entry(u.src()).or_default();
        match *u {
            EdgeUpdate::Insert { dst, weight, .. } => {
                if let Ok(i) = row.deletes.binary_search(&dst) {
                    row.deletes.remove(i);
                    self.num_deletes -= 1;
                }
                match row.inserts.binary_search_by_key(&dst, |e| e.0) {
                    Ok(i) => row.inserts[i].1 = weight,
                    Err(i) => {
                        row.inserts.insert(i, (dst, weight));
                        self.num_inserts += 1;
                    }
                }
            }
            EdgeUpdate::Delete { dst, .. } => {
                if let Ok(i) = row.inserts.binary_search_by_key(&dst, |e| e.0) {
                    row.inserts.remove(i);
                    self.num_inserts -= 1;
                }
                if let Err(i) = row.deletes.binary_search(&dst) {
                    row.deletes.insert(i, dst);
                    self.num_deletes += 1;
                }
            }
        }
    }

    /// The delta row of source `v`, if it has one.
    pub fn row(&self, v: VertexId) -> Option<&DeltaRow> {
        self.rows.get(&v).filter(|r| !r.is_empty())
    }

    /// Iterates every non-empty `(source, row)` pair, in no defined
    /// order; a reader that needs sources ascending sorts what it takes.
    pub fn rows(&self) -> impl Iterator<Item = (VertexId, &DeltaRow)> {
        self.rows.iter().filter(|(_, r)| !r.is_empty()).map(|(&v, r)| (v, r))
    }

    /// Total delta entries (inserted edges + deleted edges).
    pub fn len(&self) -> usize {
        self.num_inserts + self.num_deletes
    }

    /// True when the overlay carries no delta.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserted edges resident in the overlay.
    pub fn num_inserts(&self) -> usize {
        self.num_inserts
    }

    /// Deleted edges resident in the overlay.
    pub fn num_deletes(&self) -> usize {
        self.num_deletes
    }

    /// Approximate heap bytes held by the overlay — what the scheduler
    /// cost model charges against the memory budget.
    pub fn size_bytes(&self) -> usize {
        self.rows.values().map(|r| 48 + r.inserts.len() * 12 + r.deletes.len() * 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_delete_leaves_delete() {
        let mut d = DeltaOverlay::new();
        d.apply(&EdgeUpdate::insert(1, 2));
        d.apply(&EdgeUpdate::delete(1, 2));
        let row = d.row(1).unwrap();
        assert!(row.is_deleted(2));
        assert!(row.inserts().is_empty());
        assert_eq!(d.len(), 1);
        assert_eq!(d.num_deletes(), 1);
    }

    #[test]
    fn delete_then_insert_leaves_insert() {
        let mut d = DeltaOverlay::new();
        d.apply(&EdgeUpdate::delete(3, 7));
        d.apply(&EdgeUpdate::insert_weighted(3, 7, 2.5));
        let row = d.row(3).unwrap();
        assert!(!row.is_deleted(7));
        assert_eq!(row.inserts(), &[(7, 2.5)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d.num_inserts(), 1);
    }

    #[test]
    fn reinsert_overwrites_weight() {
        let mut d = DeltaOverlay::new();
        d.apply(&EdgeUpdate::insert_weighted(0, 1, 1.0));
        d.apply(&EdgeUpdate::insert_weighted(0, 1, 9.0));
        assert_eq!(d.row(0).unwrap().inserts(), &[(1, 9.0)]);
        assert_eq!(d.num_inserts(), 1);
    }

    #[test]
    fn rows_stay_sorted() {
        let mut d = DeltaOverlay::new();
        for dst in [9u64, 2, 5, 1] {
            d.apply(&EdgeUpdate::insert(4, dst));
            d.apply(&EdgeUpdate::delete(4, dst + 10));
        }
        let row = d.row(4).unwrap();
        let ins: Vec<u64> = row.inserts().iter().map(|e| e.0).collect();
        assert_eq!(ins, vec![1, 2, 5, 9]);
        assert_eq!(row.deletes(), &[11, 12, 15, 19]);
    }

    #[test]
    fn merge_filters_and_appends() {
        let mut d = DeltaOverlay::new();
        d.apply(&EdgeUpdate::delete(0, 2));
        d.apply(&EdgeUpdate::insert_weighted(0, 5, 3.0));
        d.apply(&EdgeUpdate::insert_weighted(0, 1, 7.0)); // overrides base weight
        let base = vec![(1u64, 1.0f32), (2, 1.0), (3, 1.0)];
        let merged: Vec<_> = d.row(0).unwrap().merge(base).collect();
        assert_eq!(merged, vec![(1, 7.0), (3, 1.0), (5, 3.0)]);
        // Untouched sources have no row to merge.
        assert!(d.row(9).is_none());
    }

    #[test]
    fn merge_keeps_duplicate_order_and_drops_every_copy() {
        let mut d = DeltaOverlay::new();
        d.apply(&EdgeUpdate::delete(0, 2)); // a duplicated base edge
        d.apply(&EdgeUpdate::insert_weighted(0, 4, 9.0)); // re-weights both copies of 4
        d.apply(&EdgeUpdate::insert_weighted(0, 0, 5.0));
        d.apply(&EdgeUpdate::insert_weighted(0, 7, 6.0));
        let base = [(1u64, 1.0f32), (1, 2.0), (2, 3.0), (2, 4.0), (4, 5.0), (4, 6.0), (5, 7.0)];
        let merged: Vec<_> = d.row(0).unwrap().merge(base).collect();
        assert_eq!(merged, vec![(0, 5.0), (1, 1.0), (1, 2.0), (4, 9.0), (5, 7.0), (7, 6.0)]);
        // Past the last base edge the inserts still come out.
        let merged: Vec<_> = d.row(0).unwrap().merge([(1, 1.0)]).collect();
        assert_eq!(merged, vec![(0, 5.0), (1, 1.0), (4, 9.0), (7, 6.0)]);
    }

    #[test]
    fn empty_rows_are_invisible() {
        let mut d = DeltaOverlay::new();
        d.apply(&EdgeUpdate::insert(1, 2));
        d.apply(&EdgeUpdate::delete(1, 2));
        d.apply(&EdgeUpdate::insert(1, 2));
        // net state: inserted. Now delete → row holds only the delete;
        // removing that too leaves an empty row that must not surface.
        d.apply(&EdgeUpdate::delete(1, 2));
        d.apply(&EdgeUpdate::insert(1, 2));
        assert!(d.row(1).is_some());
        assert_eq!(d.rows().count(), 1);
        assert!(d.size_bytes() > 0);
    }

    #[test]
    fn batch_builder_round_trips() {
        let mut b = UpdateBatch::new();
        b.insert(0, 1).delete(2, 3).insert_weighted(4, 5, 0.5);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.updates()[1], EdgeUpdate::delete(2, 3));
        let v = b.into_updates();
        assert!(v[0].is_insert());
        assert_eq!(v[2], EdgeUpdate::Insert { src: 4, dst: 5, weight: 0.5 });
    }
}
