//! Reachability-index storage: the bounded-hop distance sketch.
//!
//! This module is pure storage — it knows nothing about traversal
//! engines or partitioning policy. The `cgraph-index` crate *builds*
//! a [`LevelProfile`] per indexed source by running batch BFS from
//! boundary vertices; the query path then reads it without touching
//! the graph at all: "how many vertices does source `s` reach at each
//! BFS level?" answers a whole k-hop query when the profile covers
//! the requested depth.

/// Deepest BFS level a sketch is built to: the cap on
/// `IndexConfig::hops` (the build BFS runs one hop further to detect
/// completion).
pub const MAX_EXACT_LEVEL: u32 = 62;

/// The per-source, per-level visit counts recorded while building the
/// index: `levels[d]` is the number of vertices *first* reached at
/// distance exactly `d` from the source (`levels[0] == 1`, the source
/// itself).
///
/// `complete` is true when the build BFS drained the lane within its
/// hop budget — the profile is then the *full* BFS level structure and
/// answers any `k`. When false, the BFS was cut off at the budget:
/// recorded levels are still exact (synchronous BFS visits every
/// distance-`d` vertex at superstep `d`), but nothing is known beyond
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelProfile {
    levels: Vec<u64>,
    complete: bool,
}

impl LevelProfile {
    /// Wraps recorded per-level counts. `levels[0]` must be the seed
    /// count (1 for a single-source profile).
    pub fn new(levels: Vec<u64>, complete: bool) -> Self {
        debug_assert!(!levels.is_empty(), "a profile records at least level 0");
        Self { levels, complete }
    }

    /// True when the profile covers the full BFS (the frontier drained
    /// within the build budget).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Deepest recorded level.
    pub fn horizon(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// Raw recorded counts, `counts()[d]` = new visits at level `d`.
    pub fn counts(&self) -> &[u64] {
        &self.levels
    }

    /// True when the profile can answer a `k`-hop query exactly:
    /// either the BFS completed, or `k` lies within the recorded
    /// horizon.
    pub fn exact_for(&self, k: u32) -> bool {
        self.complete || k <= self.horizon()
    }

    /// The exact `k`-hop answer, or `None` when `k` exceeds what the
    /// profile knows. Returns `(visited, per_level)` with `per_level`
    /// trimmed of trailing zero levels — the same shape the traversal
    /// path reports, so the two answer paths are bit-comparable.
    pub fn answer(&self, k: u32) -> Option<(u64, Vec<u64>)> {
        if !self.exact_for(k) {
            return None;
        }
        let end = (k as usize).min(self.levels.len() - 1);
        let mut per_level: Vec<u64> = self.levels[..=end].to_vec();
        while per_level.len() > 1 && *per_level.last().unwrap() == 0 {
            per_level.pop();
        }
        let visited = per_level.iter().sum();
        Some((visited, per_level))
    }

    /// Heap + inline bytes held by this profile.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.levels.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_answers_within_horizon() {
        // levels: 1 seed, 2 at d=1, 3 at d=2; cut off there.
        let p = LevelProfile::new(vec![1, 2, 3], false);
        assert!(!p.is_complete());
        assert_eq!(p.horizon(), 2);
        assert!(p.exact_for(2));
        assert!(!p.exact_for(3));
        assert_eq!(p.answer(1), Some((3, vec![1, 2])));
        assert_eq!(p.answer(2), Some((6, vec![1, 2, 3])));
        assert_eq!(p.answer(3), None);
    }

    #[test]
    fn complete_profile_answers_any_k_and_trims() {
        let p = LevelProfile::new(vec![1, 4, 0], true);
        // k beyond the horizon clamps; trailing zero levels trim.
        assert_eq!(p.answer(10), Some((5, vec![1, 4])));
        assert_eq!(p.answer(0), Some((1, vec![1])));
    }
}
