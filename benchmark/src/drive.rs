//! Load drivers: the closed loop, the open loop and the updater.
//!
//! All three time the program from outside — around `submit`,
//! `wait`, `apply_updates` and `commit_epoch` — on the wall clock,
//! relative to one window start shared by every thread.
//!
//! A query's client latency is the bench-timed `submit` stall plus
//! the service's own `QueryResult::response_time` (plus, in the open
//! loop, how late after its due time the submit started). Its
//! completion instant is reconstructed the same way, so tickets can
//! be redeemed in any order without the collection order leaking
//! into the numbers.

use crate::oracle::{canonical, Answer};
use crate::spans::{SpanLog, NONE};
use crate::stats::Sample;
use crate::streams::UpdateStream;
use cgraph_core::{KhopQuery, QueryResult, QueryTicket, ServiceError, ServiceGroup, UpdateBatch};
use cgraph_graph::EdgeUpdate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Every `VERIFY_STRIDE`-th stream index is kept for the oracle.
pub const VERIFY_STRIDE: usize = 37;
/// Answers verified against the oracle per workload.
pub const VERIFY_COUNT: usize = 128;

pub fn verify_indices(stream_len: usize) -> impl Iterator<Item = usize> {
    (0..VERIFY_COUNT).map(|j| j * VERIFY_STRIDE).filter(move |&i| i < stream_len)
}

fn ns(d: Duration) -> i64 {
    i64::try_from(d.as_nanos()).expect("durations in a run fit i64 nanoseconds")
}

/// What the drivers record about the queries of one window.
pub struct Recorder {
    pub t0: Instant,
    k: u32,
    pub samples: Vec<Sample>,
    /// Due time of each sample, seconds from the window start (open
    /// loop only; parallel to `samples`).
    pub due_s: Vec<f64>,
    /// Bench-timed `submit` stalls (traced runs only).
    pub stalls_us: Vec<f64>,
    /// How late after its due time each open-loop submit started.
    pub late_ms: Vec<f64>,
    pub exec_ms_sum: f64,
    pub wait_ms_sum: f64,
    pub stall_ms_sum: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Served answers at the sampled stream indices: `(source,
    /// answer, epoch)`.
    pub sampled: HashMap<usize, (u64, Answer, u64)>,
    pub spans: Option<SpanLog>,
}

impl Recorder {
    /// `trace_trees`: request trees to store when tracing (`None` =
    /// tracing off).
    pub fn new(t0: Instant, k: u32, trace_trees: Option<usize>) -> Self {
        Self {
            t0,
            k,
            // Reserved up front: a cache-resident closed loop records
            // millions of samples, and regrowing the vector by copying
            // it is bench work inside the window. Untouched pages of
            // the reservation cost nothing.
            samples: Vec::with_capacity(1 << 22),
            due_s: Vec::new(),
            stalls_us: Vec::new(),
            late_ms: Vec::new(),
            exec_ms_sum: 0.0,
            wait_ms_sum: 0.0,
            stall_ms_sum: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            sampled: HashMap::new(),
            spans: trace_trees.map(SpanLog::with_tree_cap),
        }
    }

    pub fn now_ns(&self) -> i64 {
        ns(self.t0.elapsed())
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Books one redeemed ticket.
    fn record(&mut self, p: &Flight, result: Result<QueryResult, ServiceError>) {
        let r = match result {
            Ok(r) => r,
            Err(e) => return self.fail(format!("query {} (source {}): {e}", p.idx, p.source)),
        };
        if r.per_level.first() != Some(&1) || r.per_level.iter().sum::<u64>() != r.visited {
            self.fail(format!(
                "query {} (source {}): malformed answer visited={} per_level={:?}",
                p.idx, p.source, r.visited, r.per_level
            ));
        } else if r.epoch < p.epoch_floor {
            self.fail(format!(
                "query {} answered at epoch {} after epoch {} was acknowledged",
                p.idx, r.epoch, p.epoch_floor
            ));
        }
        let response_ns = ns(r.response_time);
        let done_ns = p.start_ns + p.stall_ns + response_ns;
        let late_ns = p.due_ns.map_or(0, |due| p.start_ns - due);
        self.samples.push(Sample {
            at_s: done_ns as f64 / 1e9,
            value: (late_ns + p.stall_ns + response_ns) as f64 / 1e6,
        });
        if let Some(due) = p.due_ns {
            self.due_s.push(due as f64 / 1e9);
            self.late_ms.push(late_ns as f64 / 1e6);
        }
        if self.spans.is_some() {
            self.stalls_us.push(p.stall_ns as f64 / 1e3);
        }
        self.stall_ms_sum += p.stall_ns as f64 / 1e6;
        self.exec_ms_sum += r.exec_time.as_secs_f64() * 1e3;
        self.wait_ms_sum += r.response_time.saturating_sub(r.exec_time).as_secs_f64() * 1e3;
        if p.idx.is_multiple_of(VERIFY_STRIDE) && p.idx / VERIFY_STRIDE < VERIFY_COUNT {
            self.sampled.insert(p.idx, (p.source, canonical(r.visited, &r.per_level), r.epoch));
        }
        if let Some(log) = &mut self.spans {
            let admitted_ns = p.start_ns + p.stall_ns;
            log.push_tree(
                ("query", p.due_ns.unwrap_or(p.start_ns), done_ns),
                &[("submit", p.start_ns, admitted_ns), ("response", admitted_ns, done_ns)],
                u32::try_from(p.idx).unwrap_or(NONE - 1),
            );
        }
    }

    /// Submits stream entry `idx` for the closed loop; `Some` when a
    /// ticket is in flight.
    fn submit(
        &mut self,
        group: &ServiceGroup,
        idx: usize,
        source: u64,
        epoch_floor: u64,
    ) -> Option<(Flight, QueryTicket)> {
        self.attempted += 1;
        let start = self.t0.elapsed();
        let submitted = group.submit(KhopQuery::single(idx, source, self.k));
        let stall_ns = ns(self.t0.elapsed() - start);
        match submitted {
            Ok(ticket) => Some((
                Flight { idx, source, start_ns: ns(start), stall_ns, due_ns: None, epoch_floor },
                ticket,
            )),
            Err(e) => {
                self.fail(format!("submit {idx} (source {source}): {e}"));
                None
            }
        }
    }
}

/// One submitted query awaiting its answer.
struct Flight {
    idx: usize,
    source: u64,
    start_ns: i64,
    stall_ns: i64,
    due_ns: Option<i64>,
    /// Last epoch a commit had acknowledged before the submit; the
    /// answer may not be older.
    epoch_floor: u64,
}

/// Closed loop: one submitter keeps `outstanding` queries in flight
/// for `window`, refilling as answers arrive (a sliding window — the
/// admission queues never drain in waves). Answers that are ready
/// when `submit` returns (cache and index hits) never occupy a slot.
/// Blocks only on the oldest in-flight ticket, then sweeps the rest,
/// so the submitter does not burn a core spinning.
pub fn closed_loop(
    group: &ServiceGroup,
    sources: &[u64],
    outstanding: usize,
    window: Duration,
    acked_epoch: &AtomicU64,
    progress: &AtomicU64,
    rec: &mut Recorder,
) {
    let window_ns = ns(window);
    let mut flights: Vec<(Flight, QueryTicket)> = Vec::with_capacity(outstanding);
    let mut next = 0usize;
    loop {
        while flights.len() < outstanding && rec.now_ns() < window_ns {
            let idx = next;
            next += 1;
            let floor = acked_epoch.load(Ordering::SeqCst);
            let source = sources[idx % sources.len()];
            if let Some((flight, ticket)) = rec.submit(group, idx, source, floor) {
                match ticket.try_wait() {
                    Some(result) => rec.record(&flight, result),
                    None => flights.push((flight, ticket)),
                }
                progress.store(rec.samples.len() as u64, Ordering::Relaxed);
            }
        }
        if flights.is_empty() {
            break;
        }
        let (flight, ticket) = flights.remove(0);
        rec.record(&flight, ticket.wait());
        flights.retain(|(flight, ticket)| match ticket.try_wait() {
            Some(result) => {
                rec.record(flight, result);
                false
            }
            None => true,
        });
        progress.store(rec.samples.len() as u64, Ordering::Relaxed);
    }
}

/// Time source of the open-loop generator; tests inject a fake one.
pub trait Clock {
    fn now_ns(&self) -> i64;
    fn sleep_until(&self, at_ns: i64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> i64 {
        ns(self.0.elapsed())
    }

    fn sleep_until(&self, at_ns: i64) {
        let now = self.now_ns();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos((at_ns - now) as u64));
        }
    }
}

/// One offered-load step of the open loop.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub rate: f64,
    pub from_s: f64,
    pub until_s: f64,
}

/// Due times of Poisson arrivals over each step: exponential gaps at
/// the step's rate from a generator seeded with `seed` — independent
/// users, which is what makes a load an open loop. Evenly spaced
/// arrivals have no tail of their own, so the latency tail they
/// measure is whatever hiccup the host had; with random arrivals the
/// tail is the service's answer to bursts, the same in every run.
pub fn poisson_due_times_ns(steps: &[Step], seed: u64) -> Vec<i64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4152_5256);
    let mut due = Vec::new();
    for s in steps {
        let mut t = s.from_s;
        loop {
            // Inverse CDF of the exponential; `gen` is in [0, 1).
            t += -(1.0 - rng.gen::<f64>()).ln() / s.rate;
            if t >= s.until_s {
                break;
            }
            due.push((t * 1e9) as i64);
        }
    }
    due
}

/// The generator: submits each arrival at its due time, never
/// earlier, and — when it has fallen behind — immediately, without
/// skipping any. `submit(idx, due_ns, start_ns)` is told both times so
/// latency can be charged from the due time.
pub fn generate<C: Clock>(clock: &C, due_ns: &[i64], mut submit: impl FnMut(usize, i64, i64)) {
    for (idx, &due) in due_ns.iter().enumerate() {
        clock.sleep_until(due);
        submit(idx, due, clock.now_ns().max(due));
    }
}

/// Open loop: a generator thread submits at the `due` times (ns from
/// the recorder's start) whatever the service does; the calling thread
/// redeems tickets. Returns once every submitted query has been
/// answered.
pub fn open_loop(group: &ServiceGroup, sources: &[u64], due: &[i64], rec: &mut Recorder) {
    let (tx, rx) = mpsc::channel::<(Flight, QueryTicket)>();
    let (t0, k) = (rec.t0, rec.k);
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let failures = &mut failures;
        scope.spawn(move || {
            generate(&WallClock(t0), due, |idx, due_ns, start_ns| {
                let source = sources[idx % sources.len()];
                let submitted = group.submit(KhopQuery::single(idx, source, k));
                let stall_ns = ns(t0.elapsed()) - start_ns;
                match submitted {
                    Ok(ticket) => {
                        let flight = Flight {
                            idx,
                            source,
                            start_ns,
                            stall_ns,
                            due_ns: Some(due_ns),
                            epoch_floor: 0,
                        };
                        // The collector outlives the generator.
                        tx.send((flight, ticket)).expect("collector hung up");
                    }
                    Err(e) => failures.push(format!("submit {idx} (source {source}): {e}")),
                }
            });
        });
        for (flight, ticket) in rx {
            rec.attempted += 1;
            rec.record(&flight, ticket.wait());
        }
    });
    for f in failures {
        rec.attempted += 1;
        rec.fail(f);
    }
}

/// Queries submitted but not yet answered at instant `at_s`.
pub fn backlog_at(rec: &Recorder, at_s: f64) -> i64 {
    let submitted = rec.due_s.iter().zip(&rec.late_ms).filter(|(d, l)| *d + *l / 1e3 <= at_s);
    let done = rec.samples.iter().filter(|s| s.at_s <= at_s).count() as i64;
    submitted.count() as i64 - done
}

/// What the updater thread measured.
#[derive(Default)]
pub struct UpdaterOut {
    /// `at_s` = when the commit started, `value` = its wall in ms.
    pub commits: Vec<Sample>,
    pub applies_ms: Vec<f64>,
    pub spans: SpanLog,
    pub failures: Vec<String>,
    /// The batches whose `apply_updates` *and* `commit_epoch`
    /// succeeded, in order — what the oracle applies.
    pub committed: Vec<Vec<EdgeUpdate>>,
}

/// The updater: applies the next batch of `stream` and commits it
/// each time another `queries_per_commit` queries have completed
/// (`progress` counts them), until the window ends. The schedule is
/// in *work*, not time — a write share, as a storage benchmark states
/// its mix — so a slower host runs the same sequence of events more
/// slowly instead of a different sequence. Publishes each
/// acknowledged epoch.
pub fn updater(
    group: &ServiceGroup,
    mut stream: UpdateStream<'_>,
    queries_per_commit: u64,
    progress: &AtomicU64,
    t0: Instant,
    window: Duration,
    acked_epoch: &AtomicU64,
) -> UpdaterOut {
    let mut out = UpdaterOut::default();
    let clock = WallClock(t0);
    let window_ns = ns(window);
    for due in (1u64..).map(|i| i * queries_per_commit) {
        while progress.load(Ordering::Relaxed) < due {
            if clock.now_ns() >= window_ns {
                return out;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let updates = stream.next_batch();
        let mut batch = UpdateBatch::new();
        for u in &updates {
            batch.push(*u);
        }
        let start = clock.now_ns();
        let applied = group.apply_updates(batch);
        let mid = clock.now_ns();
        let committed = applied.and_then(|()| group.commit_epoch());
        let end = clock.now_ns();
        out.spans.push_tree(
            ("update_cycle", start, end),
            &[("apply_updates", start, mid), ("commit_epoch", mid, end)],
            NONE,
        );
        match committed {
            Ok(epoch) => {
                acked_epoch.store(epoch, Ordering::SeqCst);
                out.committed.push(updates);
                out.applies_ms.push((mid - start) as f64 / 1e6);
                out.commits
                    .push(Sample { at_s: mid as f64 / 1e9, value: (end - mid) as f64 / 1e6 });
            }
            Err(e) => {
                out.failures.push(format!("update batch {}: {e}", out.committed.len()));
                return out;
            }
        }
    }
    out
}

/// Submits `sources` to a quiet service, all at once, and returns the
/// canonical answers in order (`None` for a failed query).
pub fn ask_all(group: &ServiceGroup, sources: &[u64], k: u32) -> Vec<Option<(Answer, u64)>> {
    let tickets: Vec<_> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| group.submit(KhopQuery::single(i, s, k)))
        .collect();
    tickets
        .into_iter()
        .map(|t| {
            let r = t.and_then(QueryTicket::wait).ok()?;
            Some((canonical(r.visited, &r.per_level), r.epoch))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to sleep — plus one injected
    /// stall: the first time it is read at or after `stall_at`, it
    /// jumps `stall_ns` ahead (the generator thread lost the CPU).
    struct FakeClock {
        now: Cell<i64>,
        stall_at: i64,
        stall_ns: Cell<i64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> i64 {
            if self.now.get() >= self.stall_at {
                self.now.set(self.now.get() + self.stall_ns.replace(0));
            }
            self.now.get()
        }

        fn sleep_until(&self, at_ns: i64) {
            self.now.set(self.now.get().max(at_ns));
        }
    }

    #[test]
    fn poisson_arrivals_keep_the_rate_and_follow_the_seed() {
        let steps = [Step { rate: 1000.0, from_s: 0.0, until_s: 20.0 }];
        let due = poisson_due_times_ns(&steps, 7);
        // 20 000 expected, standard deviation ~141.
        assert!((19_300..20_700).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]) && *due.last().unwrap() < 20_000_000_000);
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = due.windows(2).filter(|w| w[1] - w[0] > 1_000_000).count() as f64;
        assert!((long / due.len() as f64 - (-1.0f64).exp()).abs() < 0.02);
        assert_eq!(due, poisson_due_times_ns(&steps, 7));
        assert_ne!(due, poisson_due_times_ns(&steps, 8));
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_queries_it_delayed() {
        // 1000/s for 20 ms; the generator stalls 5.5 ms when it wakes
        // for arrival 4 (due at 4 ms).
        let due: Vec<i64> = (0..20).map(|i| i * 1_000_000).collect();
        let clock =
            FakeClock { now: Cell::new(0), stall_at: 4_000_000, stall_ns: Cell::new(5_500_000) };
        let mut late = Vec::new();
        generate(&clock, &due, |idx, due_ns, start_ns| late.push((idx, start_ns - due_ns)));
        assert_eq!(late.len(), 20, "no arrival is skipped");
        // On time before the stall.
        assert!(late[..4].iter().all(|&(_, l)| l == 0));
        // Arrivals 4..=9 were due during the stall and start late by
        // what was left of it: 5.5 ms, 4.5 ms, ... 0.5 ms.
        let expect: Vec<i64> = (0..6).map(|i| 5_500_000 - i * 1_000_000).collect();
        assert_eq!(late[4..10].iter().map(|&(_, l)| l).collect::<Vec<_>>(), expect);
        // Caught up afterwards.
        assert!(late[10..].iter().all(|&(_, l)| l == 0));
    }

    #[test]
    fn verify_indices_are_strided_and_bounded() {
        let v: Vec<usize> = verify_indices(10_000).collect();
        assert_eq!(v.len(), VERIFY_COUNT);
        assert_eq!(v[1], VERIFY_STRIDE);
        assert_eq!(verify_indices(100).count(), 3);
    }
}
