//! Bench-side spans: recorded around the calls into the program,
//! kept in memory, written out after the window.
//!
//! A span is `(name, start, end, parent, query id)`; spans of one
//! request share the query id. A span's *self time* is its duration
//! minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// No parent / no query.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds from the window start.
    pub start_ns: i64,
    pub end_ns: i64,
    /// Index of the causing span in the same log, or [`NONE`].
    pub parent: u32,
    /// Request the span belongs to (stream index), or [`NONE`].
    pub query: u32,
}

/// Per-name roll-up over a log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: i64,
    pub self_ns: i64,
}

/// One thread's span log; logs are merged after the window.
///
/// Spans arrive as whole trees (a root and its direct children), so
/// self time is settled when the tree is pushed and the roll-up
/// covers every span ever pushed — while only the first `tree_cap`
/// request trees are *stored*: a closed loop on a cache-resident
/// stream records millions of them.
pub struct SpanLog {
    pub spans: Vec<Span>,
    rollup: BTreeMap<&'static str, Rollup>,
    tree_cap: usize,
    stored_trees: usize,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::with_tree_cap(usize::MAX)
    }
}

impl SpanLog {
    pub fn with_tree_cap(tree_cap: usize) -> Self {
        Self { spans: Vec::new(), rollup: BTreeMap::new(), tree_cap, stored_trees: 0 }
    }

    /// Records a root span and its direct children, `(name, start,
    /// end)` each. Trees without a query id (commits, recovery) are
    /// always stored.
    pub fn push_tree(
        &mut self,
        root: (&'static str, i64, i64),
        children: &[(&'static str, i64, i64)],
        query: u32,
    ) {
        let mut intervals: Vec<(i64, i64)> = children.iter().map(|&(_, s, e)| (s, e)).collect();
        let self_ns = (root.2 - root.1) - cover(&mut intervals, root.1, root.2);
        self.note(root, self_ns);
        for &child in children {
            self.note(child, child.2 - child.1);
        }
        if query == NONE || self.stored_trees < self.tree_cap {
            self.stored_trees += usize::from(query != NONE);
            let parent = self.spans.len() as u32;
            let span =
                |(name, start_ns, end_ns), parent| Span { name, start_ns, end_ns, parent, query };
            self.spans.push(span(root, NONE));
            self.spans.extend(children.iter().map(|&c| span(c, parent)));
        }
    }

    fn note(&mut self, (name, start, end): (&'static str, i64, i64), self_ns: i64) {
        let r = self.rollup.entry(name).or_default();
        r.count += 1;
        r.total_ns += end - start;
        r.self_ns += self_ns;
    }

    /// Appends `other`, re-basing its parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
        for (name, r) in other.rollup {
            let mine = self.rollup.entry(name).or_default();
            mine.count += r.count;
            mine.total_ns += r.total_ns;
            mine.self_ns += r.self_ns;
        }
    }

    /// Count, total and self time per span name, over every span
    /// pushed (stored or not).
    pub fn rollup(&self) -> &BTreeMap<&'static str, Rollup> {
        &self.rollup
    }

    /// Writes one JSON object per line: the roll-up first (`"rollup"`
    /// records, over all spans), then the stored spans in log order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, r) in &self.rollup {
            writeln!(
                w,
                "{{\"rollup\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                r.count, r.total_ns, r.self_ns
            )?;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| if v == NONE { "null".to_string() } else { v.to_string() };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"query\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.query)
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn cover(intervals: &mut [(i64, i64)], lo: i64, hi: i64) -> i64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut log = SpanLog::default();
        // Two overlapping children cover [10, 60]; a third sticks out
        // past the parent and is clipped to [90, 100].
        log.push_tree(
            ("query", 0, 100),
            &[("submit", 10, 40), ("response", 30, 60), ("late", 90, 130)],
            0,
        );
        let r = log.rollup();
        assert_eq!(r["query"], Rollup { count: 1, total_ns: 100, self_ns: 100 - 50 - 10 });
        assert_eq!(r["submit"], Rollup { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(r["late"].total_ns, 40);
        assert_eq!(log.spans.len(), 4);
        assert!(log.spans[1..].iter().all(|s| s.parent == 0 && s.query == 0));
    }

    #[test]
    fn the_cap_bounds_stored_request_trees_but_not_the_rollup() {
        let mut log = SpanLog::with_tree_cap(2);
        for q in 0..5 {
            log.push_tree(("query", 0, 10), &[("submit", 0, 4)], q);
        }
        log.push_tree(("update_cycle", 0, 10), &[("commit_epoch", 2, 10)], NONE);
        assert_eq!(log.spans.len(), 2 * 2 + 2);
        assert_eq!(log.rollup()["query"], Rollup { count: 5, total_ns: 50, self_ns: 30 });
        assert_eq!(log.rollup()["update_cycle"].self_ns, 2);
    }

    #[test]
    fn merge_rebases_parents_and_sums_rollups() {
        let mut a = SpanLog::default();
        a.push_tree(("update_cycle", 0, 10), &[], NONE);
        let mut b = SpanLog::default();
        b.push_tree(("query", 0, 20), &[("submit", 0, 5)], 3);
        b.push_tree(("update_cycle", 0, 7), &[], NONE);
        a.merge(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, NONE);
        assert_eq!(a.rollup()["update_cycle"], Rollup { count: 2, total_ns: 17, self_ns: 17 });
        assert_eq!(a.rollup()["query"].self_ns, 15);
    }
}
