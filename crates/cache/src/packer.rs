//! Locality-aware batch formation.
//!
//! MS-BFS lane packing shares the per-machine edge-set scan across
//! every lane of a batch, so the scan work a batch triggers on a
//! machine is driven by the lanes whose frontiers touch that machine's
//! partition. Packing queries whose *sources* sit in the same
//! partition range concentrates the early (and usually heaviest)
//! supersteps on few machines and maximises shared-subgraph traversal
//! — the query-locality effect Q-Graph (Mayer et al.) reports as a
//! first-order win for multi-query batching.
//!
//! [`pack_locality`] selects up to `lanes` waiting traversals from a
//! FIFO queue, preferring the partitions already represented in the
//! batch, under a strict **fairness bound**: the oldest waiting
//! traversal is always taken, and any traversal that has been passed
//! over [`PackPolicy::fairness_bound`] times is promoted to mandatory
//! — so a query on a cold partition is delayed at most
//! `fairness_bound` batches, never starved.
//!
//! [`plan_batch`] is the whole formation step built on it: one batch
//! from every admission queue of a service group — hits and expired
//! deadlines out, the rest merged oldest first, selected, and collapsed
//! so that no `(source, k)` holds two lanes — as a pure function, so the
//! properties a batch must have are tested without a service.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One waiting traversal, as the packer sees it.
#[derive(Clone, Copy, Debug)]
pub struct PackItem {
    /// Partition range its source vertex lands in.
    pub partition: usize,
    /// Batches this traversal has already been passed over.
    pub skips: u32,
}

/// Fairness knob for [`pack_locality`].
#[derive(Clone, Copy, Debug)]
pub struct PackPolicy {
    /// Maximum times a traversal may be passed over before it becomes
    /// mandatory in the next batch. `0` makes every batch pure FIFO.
    pub fairness_bound: u32,
}

impl Default for PackPolicy {
    fn default() -> Self {
        Self { fairness_bound: 4 }
    }
}

/// Plain FIFO selection: the first `lanes` items, in queue order.
pub fn pack_fifo(len: usize, lanes: usize) -> Vec<usize> {
    (0..len.min(lanes)).collect()
}

/// Selects up to `lanes` indices from the FIFO queue `items`,
/// preferring partition locality under the fairness bound. The
/// returned indices are strictly ascending (queue order), so relative
/// arrival order is preserved within the batch.
///
/// Selection is a deterministic function of `(items, lanes, policy)`:
///
/// 1. **Mandatory pass** — the queue head, plus every item whose
///    `skips` already reached [`PackPolicy::fairness_bound`], in FIFO
///    order.
/// 2. **Locality passes** — walk the queue FIFO, taking items whose
///    partition is already represented in the batch; when a walk adds
///    no lane and lanes remain, admit the oldest unselected item
///    (opening its partition) and walk again.
pub fn pack_locality(items: &[PackItem], lanes: usize, policy: PackPolicy) -> Vec<usize> {
    if items.len() <= lanes {
        return (0..items.len()).collect();
    }
    if policy.fairness_bound == 0 {
        return pack_fifo(items.len(), lanes);
    }
    let mut selected = vec![false; items.len()];
    let mut n_selected = 0usize;
    let mut open: Vec<usize> = Vec::new(); // partitions represented
    let take = |i: usize, selected: &mut Vec<bool>, open: &mut Vec<usize>| {
        selected[i] = true;
        if !open.contains(&items[i].partition) {
            open.push(items[i].partition);
        }
    };

    // 1. Mandatory: queue head + fairness-bound breaches, FIFO order.
    for (i, item) in items.iter().enumerate() {
        if n_selected >= lanes {
            break;
        }
        if i == 0 || item.skips >= policy.fairness_bound {
            take(i, &mut selected, &mut open);
            n_selected += 1;
        }
    }

    // 2. Locality: FIFO walks over open partitions, opening the oldest
    // unselected item's partition whenever a walk stalls.
    while n_selected < lanes {
        let mut progressed = false;
        for (i, item) in items.iter().enumerate() {
            if n_selected >= lanes {
                break;
            }
            if !selected[i] && open.contains(&item.partition) {
                take(i, &mut selected, &mut open);
                n_selected += 1;
                progressed = true;
            }
        }
        if n_selected >= lanes {
            break;
        }
        if !progressed {
            match selected.iter().position(|&s| !s) {
                Some(i) => {
                    take(i, &mut selected, &mut open);
                    n_selected += 1;
                }
                None => break, // queue exhausted
            }
        }
    }
    selected.iter().enumerate().filter(|(_, &s)| s).map(|(i, _)| i).collect()
}

/// One queued traversal, as group-wide batch formation sees it: what
/// [`plan_batch`] needs to decide its fate, and nothing it would have
/// to look up.
#[derive(Clone, Copy, Debug)]
pub struct FormItem {
    /// `(source, k)` — the traversal's identity within the epoch the
    /// batch is formed under.
    pub key: (u64, u32),
    /// Arrival stamp, smaller is older; non-decreasing along a queue.
    pub age: u64,
    /// Partition range its source lands in (read under locality
    /// packing only).
    pub partition: usize,
    /// Batches this traversal has already been passed over.
    pub skips: u32,
    /// Answerable now without a lane: the result cache or the index
    /// holds its key.
    pub hit: bool,
    /// Its deadline passed while it sat queued.
    pub expired: bool,
}

/// Where [`plan_batch`] sends one queued traversal — exactly one of
/// these, always.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Executes as lane `.0` of the batch.
    Primary(usize),
    /// Shares lane `.0`: an identical `(source, k)` already holds it.
    Follower(usize),
    /// Answered from the cache or the index, no lane spent.
    Hit,
    /// Failed with its deadline, no lane spent.
    Expired,
    /// Stays queued for a later batch.
    Queued,
}

/// How [`plan_batch`] fills a batch.
#[derive(Clone, Copy, Debug)]
pub struct FormPolicy {
    /// Most lanes one batch may hold.
    pub cap: usize,
    /// `Some` packs by partition locality under that fairness bound
    /// once the backlog overflows the cap; `None` is FIFO.
    pub locality: Option<PackPolicy>,
    /// Walk the whole backlog, not just the selection window: every
    /// queued duplicate of a chosen key follows its lane, and lanes
    /// that duplicates freed are refilled, oldest first.
    pub deep: bool,
}

/// One batch, planned: every queued traversal's [`Fate`], by queue and
/// position, and how many lanes they fill.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// `fates[q][i]` is the fate of `queues[q][i]`.
    pub fates: Vec<Vec<Fate>>,
    /// Lanes the batch holds (`<= cap`); lane ordinals are dense.
    pub lanes: usize,
}

/// Forms one batch from every queue of a group — the formation step of
/// the service as a pure function of what is queued.
///
/// Hits leave first (a hit beats an expired deadline: the answer is
/// there), then expired traversals; neither costs a lane. What is left
/// is merged across queues oldest first (ties: lower queue, lower
/// position) and selected — the first `cap` under FIFO, or
/// [`pack_locality`] over the merged order when the backlog overflows
/// the cap. Selected traversals open lanes in that order; an identical
/// `(source, k)` never opens a second lane, whichever queue it sits
/// in — it follows the first. With [`FormPolicy::deep`] the walk
/// continues over the unselected rest.
pub fn plan_batch(queues: &[Vec<FormItem>], policy: FormPolicy) -> BatchPlan {
    let mut fates: Vec<Vec<Fate>> = queues
        .iter()
        .map(|q| {
            q.iter()
                .map(|it| match (it.hit, it.expired) {
                    (true, _) => Fate::Hit,
                    (false, true) => Fate::Expired,
                    (false, false) => Fate::Queued,
                })
                .collect()
        })
        .collect();
    // The live backlog, oldest first. Each queue is already in arrival
    // order, so the stable sort merges runs.
    let mut order: Vec<(usize, usize)> = fates
        .iter()
        .enumerate()
        .flat_map(|(q, f)| (0..f.len()).filter(move |&i| f[i] == Fate::Queued).map(move |i| (q, i)))
        .collect();
    order.sort_by_key(|&(q, i)| queues[q][i].age);

    let sel: Vec<usize> = match policy.locality {
        Some(fairness) if order.len() > policy.cap => {
            let items: Vec<PackItem> = order
                .iter()
                .map(|&(q, i)| PackItem {
                    partition: queues[q][i].partition,
                    skips: queues[q][i].skips,
                })
                .collect();
            pack_locality(&items, policy.cap, fairness)
        }
        _ => pack_fifo(order.len(), policy.cap),
    };
    let mut selected = vec![false; order.len()];
    for &o in &sel {
        selected[o] = true;
    }
    let rest = (0..order.len()).filter(|&o| policy.deep && !selected[o]);
    let mut lane_of: HashMap<(u64, u32), usize> = HashMap::new();
    for o in sel.iter().copied().chain(rest) {
        let (q, i) = order[o];
        let lanes = lane_of.len();
        fates[q][i] = match lane_of.entry(queues[q][i].key) {
            Entry::Occupied(e) => Fate::Follower(*e.get()),
            Entry::Vacant(e) if lanes < policy.cap => Fate::Primary(*e.insert(lanes)),
            Entry::Vacant(_) => Fate::Queued,
        };
    }
    BatchPlan { fates, lanes: lane_of.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(parts: &[usize]) -> Vec<PackItem> {
        parts.iter().map(|&p| PackItem { partition: p, skips: 0 }).collect()
    }

    #[test]
    fn short_queue_takes_everything() {
        let q = items(&[2, 0, 1]);
        assert_eq!(pack_locality(&q, 64, PackPolicy::default()), vec![0, 1, 2]);
    }

    #[test]
    fn groups_by_head_partition_first() {
        // Head is partition 0; the batch prefers the other partition-0
        // items over earlier-queued partition-1 items.
        let q = items(&[0, 1, 1, 0, 0, 1]);
        let sel = pack_locality(&q, 3, PackPolicy::default());
        assert_eq!(sel, vec![0, 3, 4]);
    }

    #[test]
    fn opens_next_partition_when_own_is_exhausted() {
        let q = items(&[0, 0, 1, 1, 2]);
        let sel = pack_locality(&q, 3, PackPolicy::default());
        // Both partition-0 items, then the oldest remaining (index 2)
        // opens partition 1.
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn fairness_bound_promotes_skipped_items() {
        let mut q = items(&[0, 1, 0, 0]);
        q[1].skips = 4; // passed over four batches already
        let sel = pack_locality(&q, 2, PackPolicy { fairness_bound: 4 });
        // The starving partition-1 item displaces a locality pick.
        assert_eq!(sel, vec![0, 1]);
    }

    #[test]
    fn zero_fairness_degenerates_to_fifo() {
        let q = items(&[0, 1, 2, 0, 0]);
        assert_eq!(pack_locality(&q, 3, PackPolicy { fairness_bound: 0 }), vec![0, 1, 2]);
        assert_eq!(pack_fifo(5, 3), vec![0, 1, 2]);
    }

    #[test]
    fn starvation_is_bounded_under_adversarial_arrivals() {
        // Partition 9 sits behind an endless stream of partition-0
        // work. Simulate the service loop: unselected items age by one
        // skip per batch; the cold item must land within
        // fairness_bound + 1 batches.
        let bound = 3u32;
        let mut queue: Vec<PackItem> = items(&[0, 0, 9, 0, 0, 0, 0, 0]);
        let mut batches_waited = 0;
        loop {
            let sel = pack_locality(&queue, 2, PackPolicy { fairness_bound: bound });
            if sel.iter().any(|&i| queue[i].partition == 9) {
                break;
            }
            batches_waited += 1;
            assert!(batches_waited <= bound + 1, "cold-partition query starved");
            // Remove selected (descending), age the rest, refill with
            // fresh partition-0 arrivals at the tail.
            for &i in sel.iter().rev() {
                queue.remove(i);
            }
            for it in &mut queue {
                it.skips += 1;
            }
            while queue.len() < 8 {
                queue.push(PackItem { partition: 0, skips: 0 });
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let q = items(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3]);
        let a = pack_locality(&q, 4, PackPolicy::default());
        let b = pack_locality(&q, 4, PackPolicy::default());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "indices must be ascending");
    }

    fn queued(source: u64, age: u64) -> FormItem {
        FormItem { key: (source, 3), age, partition: 0, skips: 0, hit: false, expired: false }
    }

    #[test]
    fn plan_merges_queues_oldest_first_and_collapses_duplicates() {
        // Key 7 waits on both queues; key 9 is the youngest.
        let queues = vec![vec![queued(7, 1), queued(9, 5)], vec![queued(8, 0), queued(7, 2)]];
        let fifo = FormPolicy { cap: 2, locality: None, deep: false };
        let plan = plan_batch(&queues, fifo);
        // Window = the two oldest (8 then 7); 7's twin and 9 stay.
        assert_eq!(plan.fates[0], [Fate::Primary(1), Fate::Queued]);
        assert_eq!(plan.fates[1], [Fate::Primary(0), Fate::Queued]);
        // The deep walk brings the twin aboard; the cap still holds 9 out.
        let plan = plan_batch(&queues, FormPolicy { deep: true, ..fifo });
        assert_eq!(plan.fates[0], [Fate::Primary(1), Fate::Queued]);
        assert_eq!(plan.fates[1], [Fate::Primary(0), Fate::Follower(1)]);
        assert_eq!(plan.lanes, 2);
    }

    #[test]
    fn plan_spends_no_lane_on_hits_or_expired() {
        let hit = FormItem { hit: true, expired: true, ..queued(1, 0) };
        let expired = FormItem { expired: true, ..queued(2, 1) };
        let plan = plan_batch(
            &[vec![hit, expired, queued(3, 2)]],
            FormPolicy { cap: 1, locality: None, deep: true },
        );
        assert_eq!(plan.fates[0], [Fate::Hit, Fate::Expired, Fate::Primary(0)]);
    }
}
