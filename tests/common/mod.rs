//! The sequential oracle the integration suites share: a queue BFS
//! over a plain [`Csr`], independent of every engine code path.

use cgraph::prelude::*;
use std::collections::VecDeque;

/// Sequential k-hop BFS over `csr` from `source`: the visited count and
/// the per-level profile (trailing zeros trimmed — the service's
/// [`QueryResult::per_level`] convention).
pub fn reference_khop_levels(csr: &Csr, source: VertexId, k: u32) -> (u64, Vec<u64>) {
    let mut seen = vec![false; csr.num_vertices() as usize];
    let mut q = VecDeque::new();
    let mut levels = vec![1u64];
    seen[source as usize] = true;
    q.push_back((source, 0u32));
    let mut count = 1u64;
    while let Some((v, d)) = q.pop_front() {
        if d >= k {
            continue;
        }
        for &t in csr.neighbors(v) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                count += 1;
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
    (count, levels)
}
