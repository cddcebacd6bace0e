//! Independent correctness oracle: a sequential k-hop BFS over a
//! plain CSR, sharing no code with the engine under test.
//!
//! The mutating workloads verify against base + applied updates, so
//! the oracle keeps a small overlay of its own (inserted targets per
//! source, a set of deleted edges) beside the immutable CSR.

use cgraph_graph::{EdgeList, EdgeUpdate};
use std::collections::{HashMap, HashSet};

/// `(visited, per_level)` with trailing zero levels trimmed — the
/// canonical form answers are compared in.
pub type Answer = (u64, Vec<u64>);

/// Out-adjacency in compressed sparse rows, each row ascending.
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    pub fn from_edges(edges: &EdgeList) -> Self {
        let n = usize::try_from(edges.num_vertices()).expect("vertex count fits usize");
        assert!(n < u32::MAX as usize && edges.len() < u32::MAX as usize, "oracle uses u32 ids");
        let mut offsets = vec![0u32; n + 1];
        for e in edges.edges() {
            offsets[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for e in edges.edges() {
            let c = &mut cursor[e.src as usize];
            targets[*c as usize] = e.dst as u32;
            *c += 1;
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Self { offsets, targets }
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn row(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    pub fn out_degree(&self, v: u32) -> usize {
        self.row(v).len()
    }

    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.row(src).binary_search(&dst).is_ok()
    }
}

/// Edge updates applied on top of a [`Csr`], last update wins.
#[derive(Default)]
pub struct Overlay {
    inserted: HashMap<u32, Vec<u32>>,
    deleted: HashSet<(u32, u32)>,
}

impl Overlay {
    pub fn apply(&mut self, base: &Csr, u: &EdgeUpdate) {
        let (s, d) = (u.src() as u32, u.dst() as u32);
        if u.is_insert() {
            self.deleted.remove(&(s, d));
            if !base.has_edge(s, d) {
                let row = self.inserted.entry(s).or_default();
                if !row.contains(&d) {
                    row.push(d);
                }
            }
        } else {
            if let Some(row) = self.inserted.get_mut(&s) {
                row.retain(|&t| t != d);
            }
            if base.has_edge(s, d) {
                self.deleted.insert((s, d));
            }
        }
    }
}

/// Reusable BFS state (a visit stamp per vertex, so successive
/// queries need no clearing pass).
pub struct Oracle<'g> {
    csr: &'g Csr,
    stamp: Vec<u32>,
    round: u32,
}

impl<'g> Oracle<'g> {
    pub fn new(csr: &'g Csr) -> Self {
        Self { csr, stamp: vec![0; csr.num_vertices()], round: 0 }
    }

    /// Vertices within `k` hops of `source` (itself included) and how
    /// many were first reached at each hop.
    pub fn khop(&mut self, overlay: Option<&Overlay>, source: u64, k: u32) -> Answer {
        self.round += 1;
        let round = self.round;
        let mut frontier = vec![source as u32];
        self.stamp[source as usize] = round;
        let mut per_level = vec![1u64];
        for _ in 0..k {
            let mut next = Vec::new();
            for &v in &frontier {
                let mut visit = |t: u32| {
                    if self.stamp[t as usize] != round {
                        self.stamp[t as usize] = round;
                        next.push(t);
                    }
                };
                for &t in self.csr.row(v) {
                    if overlay.is_none_or(|o| !o.deleted.contains(&(v, t))) {
                        visit(t);
                    }
                }
                if let Some(row) = overlay.and_then(|o| o.inserted.get(&v)) {
                    row.iter().copied().for_each(&mut visit);
                }
            }
            if next.is_empty() {
                break;
            }
            per_level.push(next.len() as u64);
            frontier = next;
        }
        (per_level.iter().sum(), per_level)
    }
}

/// Canonical form of a served answer: trailing zero levels trimmed
/// (level 0, the source, always stays).
pub fn canonical(visited: u64, per_level: &[u64]) -> Answer {
    let keep = per_level.iter().rposition(|&c| c != 0).map_or(1, |i| i + 1);
    (visited, per_level[..keep.min(per_level.len())].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u64) -> EdgeList {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    #[test]
    fn khop_on_a_ring_counts_one_vertex_per_hop() {
        let csr = Csr::from_edges(&ring(12));
        let mut o = Oracle::new(&csr);
        assert_eq!(o.khop(None, 0, 3), (4, vec![1, 1, 1, 1]));
        assert_eq!(o.khop(None, 5, 0), (1, vec![1]));
        // Exhausts after 11 hops, whatever the budget.
        assert_eq!(o.khop(None, 0, 50).0, 12);
    }

    #[test]
    fn overlay_inserts_and_deletes_change_answers() {
        let csr = Csr::from_edges(&ring(12));
        let mut ov = Overlay::default();
        ov.apply(&csr, &EdgeUpdate::insert(0, 6));
        ov.apply(&csr, &EdgeUpdate::delete(1, 2));
        let mut o = Oracle::new(&csr);
        // 0 -> {1, 6}; 1 -/-> 2; 6 -> 7.
        assert_eq!(o.khop(Some(&ov), 0, 2), (4, vec![1, 2, 1]));
        // Deleting the inserted edge and re-inserting the base edge
        // restores the ring.
        ov.apply(&csr, &EdgeUpdate::delete(0, 6));
        ov.apply(&csr, &EdgeUpdate::insert(1, 2));
        assert_eq!(o.khop(Some(&ov), 0, 2), (3, vec![1, 1, 1]));
    }

    #[test]
    fn canonical_trims_trailing_zero_levels_only() {
        assert_eq!(canonical(3, &[1, 2, 0, 0]), (3, vec![1, 2]));
        assert_eq!(canonical(1, &[1, 0]), (1, vec![1]));
        assert_eq!(canonical(4, &[1, 0, 3]), (4, vec![1, 0, 3]));
    }
}
