//! Seeded inputs: query source streams and the update schedule.
//!
//! Everything here is a pure function of `(graph, seed)`; the program
//! under test only ever sees the generated values. Each stream has a
//! digest that the benchmark prints, so two commits can be shown to
//! have been fed identical inputs.

use crate::oracle::Csr;
use cgraph_gen::QueryStream;
use cgraph_graph::EdgeUpdate;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Hub vertices heading the hot set.
pub const HOT_HUBS: usize = 256;
/// Size of the hot set the Zipf workloads draw from.
pub const HOT_SET: usize = 1024;
/// Updates per committed batch.
pub const UPDATES_PER_BATCH: usize = 128;

/// FNV-1a over a stream of words.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn non_isolated(csr: &Csr) -> Vec<u64> {
    (0..csr.num_vertices() as u32).filter(|&v| csr.out_degree(v) > 0).map(u64::from).collect()
}

/// A seeded permutation of every vertex with an out-edge, cycled to
/// `n` entries. Sampling without replacement means no key repeats
/// until the whole vertex set has been asked once, so the result
/// cache sees only its miss path.
pub fn uniform_sources(csr: &Csr, seed: u64, n: usize) -> Vec<u64> {
    let mut perm = non_isolated(csr);
    assert!(!perm.is_empty(), "graph has no edges");
    perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    perm.iter().copied().cycle().take(n).collect()
}

/// The hot set: the [`HOT_HUBS`] highest-out-degree vertices (rank
/// order, ties by id), then seeded random other vertices up to
/// [`HOT_SET`]. Rank 0 is the biggest hub.
pub fn hot_set(csr: &Csr, seed: u64) -> Vec<u64> {
    let mut by_degree = non_isolated(csr);
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(csr.out_degree(v as u32)), v));
    let hubs = HOT_HUBS.min(by_degree.len());
    let mut rest = by_degree.split_off(hubs);
    rest.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x4845_4154));
    rest.truncate(HOT_SET - hubs);
    by_degree.extend(rest);
    by_degree
}

/// `n` sources drawn Zipf(1.0) over the ranks of `hot`.
pub fn zipf_sources(hot: &[u64], seed: u64, n: usize) -> Vec<u64> {
    QueryStream::zipf_over(seed, 1.0, n, hot.len()).sources(hot)
}

/// A seeded, endless stream of update batches of
/// [`UPDATES_PER_BATCH`] each: four inserts then one delete,
/// repeating. Inserts name only edges absent from the base graph and
/// not currently inserted by this stream; deletes name only edges an
/// *earlier batch* of this stream inserted — so every update changes
/// the logical graph and none can fail.
pub struct UpdateStream<'g> {
    csr: &'g Csr,
    rng: ChaCha8Rng,
    /// Edges earlier batches inserted and nobody deleted since.
    old: Vec<(u32, u32)>,
    live: HashSet<(u32, u32)>,
}

impl<'g> UpdateStream<'g> {
    pub fn new(csr: &'g Csr, seed: u64) -> Self {
        Self {
            csr,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5550_4454),
            old: Vec::new(),
            live: HashSet::new(),
        }
    }

    pub fn next_batch(&mut self) -> Vec<EdgeUpdate> {
        let n = self.csr.num_vertices() as u32;
        let mut fresh = Vec::new();
        let mut batch = Vec::with_capacity(UPDATES_PER_BATCH);
        for i in 0..UPDATES_PER_BATCH {
            if i % 5 == 4 && !self.old.is_empty() {
                let (s, d) = self.old.swap_remove(self.rng.gen_range(0..self.old.len()));
                self.live.remove(&(s, d));
                batch.push(EdgeUpdate::delete(u64::from(s), u64::from(d)));
            } else {
                let (s, d) = loop {
                    let (s, d) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
                    if s != d && !self.csr.has_edge(s, d) && !self.live.contains(&(s, d)) {
                        break (s, d);
                    }
                };
                fresh.push((s, d));
                self.live.insert((s, d));
                batch.push(EdgeUpdate::insert(u64::from(s), u64::from(d)));
            }
        }
        self.old.extend(fresh);
        batch
    }
}

/// The first `batches` batches of [`UpdateStream`].
pub fn update_batches(csr: &Csr, seed: u64, batches: usize) -> Vec<Vec<EdgeUpdate>> {
    let mut stream = UpdateStream::new(csr, seed);
    (0..batches).map(|_| stream.next_batch()).collect()
}

pub fn updates_digest(batches: &[Vec<EdgeUpdate>]) -> u64 {
    digest(batches.iter().flatten().flat_map(|u| [u.src(), u.dst(), u64::from(u.is_insert())]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_gen::Dataset;

    fn tiny() -> Csr {
        Csr::from_edges(&Dataset::Tiny.generate())
    }

    #[test]
    fn same_seed_same_digest_and_different_seed_differs() {
        let csr = tiny();
        let d = |seed| {
            let hot = hot_set(&csr, seed);
            (
                digest(uniform_sources(&csr, seed, 500)),
                digest(zipf_sources(&hot, seed, 500)),
                updates_digest(&update_batches(&csr, seed, 6)),
            )
        };
        assert_eq!(d(7), d(7));
        let (a, b) = (d(7), d(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn uniform_sources_do_not_repeat_before_the_vertex_set_is_exhausted() {
        let csr = tiny();
        let distinct = non_isolated(&csr).len();
        let s = uniform_sources(&csr, 3, distinct + 10);
        let firsts: HashSet<u64> = s[..distinct].iter().copied().collect();
        assert_eq!(firsts.len(), distinct);
        assert_eq!(s[distinct], s[0]);
    }

    #[test]
    fn hot_set_is_headed_by_hubs_in_degree_order() {
        let csr = tiny();
        let hot = hot_set(&csr, 11);
        let deg = |v: u64| csr.out_degree(v as u32);
        assert!(hot[..HOT_HUBS.min(hot.len())].windows(2).all(|w| deg(w[0]) >= deg(w[1])));
        let uniq: HashSet<u64> = hot.iter().copied().collect();
        assert_eq!(uniq.len(), hot.len());
        // The head does not depend on the seed; the tail does.
        let other = hot_set(&csr, 12);
        assert_eq!(hot[..HOT_HUBS.min(hot.len())], other[..HOT_HUBS.min(other.len())]);
    }

    #[test]
    fn updates_insert_absent_edges_and_delete_only_their_own_earlier_inserts() {
        let csr = tiny();
        let batches = update_batches(&csr, 5, 12);
        let mut live: HashSet<(u64, u64)> = HashSet::new();
        let mut deletes = 0;
        for batch in &batches {
            assert_eq!(batch.len(), UPDATES_PER_BATCH);
            let before = live.clone();
            for u in batch {
                let e = (u.src(), u.dst());
                if u.is_insert() {
                    assert!(!csr.has_edge(e.0 as u32, e.1 as u32), "insert of a base edge");
                    assert!(live.insert(e), "insert of a live edge");
                } else {
                    assert!(before.contains(&e), "delete of an edge no earlier batch inserted");
                    assert!(live.remove(&e), "double delete");
                    deletes += 1;
                }
            }
        }
        // One delete per four inserts once there is something to delete.
        assert!(deletes >= 11 * (UPDATES_PER_BATCH / 5) - 1, "{deletes}");
    }
}
