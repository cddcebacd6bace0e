//! The machine runtime: long-lived machine threads serving many jobs.
//!
//! A [`PersistentCluster`] spawns its `p` machine threads **once**;
//! between jobs they park on their job channel, and each submitted job
//! gets a fresh communication fabric (channels, barrier, termination
//! detector) so state — including poison from a failed job — never
//! leaks across jobs. It is the one way a job reaches the machines: the
//! streaming query service keeps one for its lifetime and dispatches
//! thousands of small batches to it, and a one-shot engine call (a
//! GAS run, a partition program, a queue traversal) makes one, submits
//! one job and drops it, which joins the threads.
//!
//! Failure containment: each machine runs its job under
//! `catch_unwind`. The first machine to observe a panic poisons the
//! job's barrier and termination detector, which wakes or aborts every
//! peer parked on them; those peers' induced panics are caught the
//! same way. [`PersistentCluster::submit`] then returns
//! [`ClusterError::MachinePanicked`] — and the machine threads,
//! having caught everything, park again ready for the next job.
//!
//! Because submitted jobs borrow the submitter's stack frame (their
//! lifetimes are erased under a scoped-thread-pool argument), `submit`
//! aborts the process rather than unwinding if a machine thread itself
//! ever dies mid-protocol — see `protocol_fatal`.

use crate::chaos::ChaosRun;
use crate::cluster::{CommHandle, Fabric, TrafficReport};
use crate::message::WireSize;
use crate::netmodel::NetModel;
use crate::obs::{ClusterObsHandles, JobCoords};
use cgraph_obs::Obs;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Why a submission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// [`PersistentCluster::shutdown`] already ran; no machine threads
    /// remain to execute jobs.
    ShutDown,
    /// A machine's worker panicked during the job. Peer machines were
    /// unblocked via fabric poisoning; the cluster itself survives and
    /// accepts further jobs.
    MachinePanicked {
        /// The first machine observed to fail.
        machine: usize,
        /// Its panic payload, rendered as text.
        message: String,
    },
    /// Every machine completed, but the chaos plan dropped messages in
    /// flight — the results are built from incomplete mailboxes and
    /// must not be trusted. Recoverable by re-execution.
    MessagesLost {
        /// Messages dropped during the job.
        dropped: u64,
    },
}

impl ClusterError {
    /// True when retrying the job could succeed (the cluster itself is
    /// still alive).
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, ClusterError::ShutDown)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ShutDown => write!(f, "cluster is shut down"),
            ClusterError::MachinePanicked { machine, message } => {
                write!(f, "machine {machine} panicked: {message}")
            }
            ClusterError::MessagesLost { dropped } => {
                write!(f, "{dropped} message(s) lost in flight: results are untrustworthy")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Last resort for a broken submit protocol: a machine thread vanished
/// (its job channel or the ack channel disconnected) while `submit`
/// had jobs outstanding. Machine threads catch every job panic, so
/// this is unreachable unless a thread was killed externally — and at
/// that point unwinding out of `submit` would be *unsound*: dispatched
/// jobs borrow `submit`'s stack frame through erased lifetimes
/// (use-after-free once the frame unwinds), and any acks left
/// unconsumed would let the next `submit` return while this job's
/// closures still run. Abort instead of unwinding.
fn protocol_fatal(what: &str) -> ! {
    eprintln!(
        "cgraph-comm fatal: {what}; aborting — cannot unwind while borrowed jobs are in flight"
    );
    std::process::abort();
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A job as seen by a machine thread: type- and lifetime-erased.
/// Safety contract: the submitter blocks until the job has run, so the
/// erased borrows outlive every use (the scoped-thread-pool argument).
type Job = Box<dyn FnOnce() + Send>;

struct Inner {
    /// One job channel per machine; `None` after shutdown (dropping
    /// the senders is what releases the parked threads).
    job_txs: Option<Vec<Sender<Job>>>,
    /// Machines acknowledge job completion here.
    ack_rx: Receiver<usize>,
    threads: Vec<JoinHandle<()>>,
}

/// `p` long-lived machine threads executing submitted jobs.
///
/// ```
/// use cgraph_comm::PersistentCluster;
/// let cluster = PersistentCluster::new(3);
/// for round in 0..4u64 {
///     let (sums, _traffic) = cluster
///         .submit::<u64, u64, _>(|h| {
///             h.send((h.id() + 1) % h.num_machines(), round);
///             h.barrier();
///             h.drain().iter().map(|e| e.payload).sum::<u64>()
///         })
///         .unwrap();
///     assert_eq!(sums, vec![round; 3]);
/// }
/// cluster.shutdown();
/// assert!(cluster.submit::<u64, (), _>(|_| ()).is_err());
/// ```
pub struct PersistentCluster {
    p: usize,
    model: NetModel,
    inner: Mutex<Inner>,
    /// Completed-job count — the job "generation". Each generation
    /// corresponds to one fabric; machines of generation `g` can never
    /// touch generation `g+1` state.
    generation: AtomicU64,
    /// Coordinator-side observability handles, cached once at
    /// [`PersistentCluster::set_obs`] time.
    obs: Mutex<Option<Arc<ClusterObsHandles>>>,
}

impl PersistentCluster {
    /// Spawns `p` machine threads with the default network model.
    pub fn new(p: usize) -> Self {
        Self::with_model(p, NetModel::default())
    }

    /// Spawns `p` machine threads with an explicit network model.
    pub fn with_model(p: usize, model: NetModel) -> Self {
        assert!(p > 0, "cluster needs at least one machine");
        let (ack_tx, ack_rx) = unbounded::<usize>();
        let mut job_txs = Vec::with_capacity(p);
        let mut threads = Vec::with_capacity(p);
        for id in 0..p {
            let (tx, rx) = unbounded::<Job>();
            job_txs.push(tx);
            let ack = ack_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cgraph-machine-{id}"))
                    .spawn(move || {
                        // Park on the job channel; a disconnect (all
                        // senders dropped at shutdown) ends the thread.
                        while let Ok(job) = rx.recv() {
                            job(); // never unwinds: jobs catch internally
                            if ack.send(id).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn machine thread"),
            );
        }
        Self {
            p,
            model,
            inner: Mutex::new(Inner { job_txs: Some(job_txs), ack_rx, threads }),
            generation: AtomicU64::new(0),
            obs: Mutex::new(None),
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.p
    }

    /// Number of jobs completed so far.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Installs an observability bundle: every subsequent job wires a
    /// per-machine [`MachineObs`](crate::obs::MachineObs) into its
    /// [`CommHandle`]s and the cluster accounts jobs, barrier
    /// generations, and barrier poisonings against the registry.
    pub fn set_obs(&self, obs: Arc<Obs>) {
        *self.obs.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(Arc::new(ClusterObsHandles::new(obs, self.p)));
    }

    /// The installed observability bundle, if any.
    pub fn obs(&self) -> Option<Arc<Obs>> {
        self.obs.lock().unwrap_or_else(|e| e.into_inner()).as_ref().map(|h| Arc::clone(&h.obs))
    }

    /// Runs `worker(handle)` on every machine over a fresh fabric and
    /// blocks until all machines finish, returning per-machine results
    /// and the job's traffic report.
    ///
    /// Concurrent submitters are serialized: one job occupies the
    /// whole cluster at a time (batches are cluster-wide by design).
    ///
    /// On a machine panic the remaining machines are unblocked through
    /// fabric poisoning, the error is returned, and the cluster stays
    /// usable for subsequent jobs.
    pub fn submit<M, R, F>(&self, worker: F) -> Result<(Vec<R>, TrafficReport), ClusterError>
    where
        M: WireSize + Send,
        R: Send,
        F: Fn(CommHandle<M>) -> R + Sync,
    {
        self.submit_with_chaos(None, worker)
    }

    /// Like [`PersistentCluster::submit`], but wires an optional
    /// [`ChaosRun`] into every machine's [`CommHandle`] so the job
    /// experiences the run's fault plan (scripted crashes at
    /// [`CommHandle::fault_point`]s, message drop/dup/reorder, slow
    /// links).
    ///
    /// If the job completes but the plan dropped messages, the results
    /// were computed from incomplete mailboxes and
    /// [`ClusterError::MessagesLost`] is returned instead. If a
    /// machine panicked *and* messages were dropped, the panic wins
    /// (read [`ChaosRun::dropped`] afterwards for the full picture).
    pub fn submit_with_chaos<M, R, F>(
        &self,
        chaos: Option<&ChaosRun>,
        worker: F,
    ) -> Result<(Vec<R>, TrafficReport), ClusterError>
    where
        M: WireSize + Send,
        R: Send,
        F: Fn(CommHandle<M>) -> R + Sync,
    {
        // Default job coordinates: the chaos run's if present (the
        // caller chose them), else the current generation as the job
        // number (unique per completed job under serialized submits).
        let coords = match chaos {
            Some(run) => JobCoords { job: run.job, attempt: run.attempt },
            None => JobCoords { job: self.generation(), attempt: 0 },
        };
        self.submit_job(chaos, coords, worker)
    }

    /// The fully-specified submission path: like
    /// [`PersistentCluster::submit_with_chaos`] but with explicit
    /// [`JobCoords`] labelling the job's metrics and trace events (the
    /// query service passes its batch sequence number and retry
    /// attempt here so cluster-level events join up with service-level
    /// ones).
    pub fn submit_job<M, R, F>(
        &self,
        chaos: Option<&ChaosRun>,
        coords: JobCoords,
        worker: F,
    ) -> Result<(Vec<R>, TrafficReport), ClusterError>
    where
        M: WireSize + Send,
        R: Send,
        F: Fn(CommHandle<M>) -> R + Sync,
    {
        let obs = self.obs.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job_txs) = inner.job_txs.as_ref() else {
            return Err(ClusterError::ShutDown);
        };

        let chaos_job = chaos.map(|run| std::sync::Arc::new(run.job_state(self.p)));
        let fabric = Fabric::<M>::build_instrumented(
            self.p,
            self.model,
            chaos_job.clone(),
            obs.as_ref().map(|h| (h.machines.as_slice(), coords)),
        );
        let stats = fabric.stats;
        let barrier = fabric.barrier;
        let term = fabric.term;
        // Keep every machine's inbox receiver alive until all acks are
        // in: a crashed machine drops its handle (and receiver) before
        // peers see the poison, and without this their sends to the
        // dead machine would panic "hung up" — masking the real
        // failure and defeating checkpoint-saving peers.
        let _keepalive = fabric.receivers;
        // One result slot per machine, written exactly once per job.
        let results: Mutex<Vec<Option<Result<R, String>>>> =
            Mutex::new((0..self.p).map(|_| None).collect());

        let worker = &worker;
        let results_ref = &results;
        for (id, (handle, tx)) in fabric.handles.into_iter().zip(job_txs).enumerate() {
            let barrier = barrier.clone();
            let term = term.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| worker(handle)));
                let entry = match outcome {
                    Ok(r) => Ok(r),
                    Err(payload) => {
                        // Wake peers parked on this job's fabric so
                        // they fail fast instead of waiting forever.
                        barrier.poison();
                        term.poison();
                        Err(panic_message(payload))
                    }
                };
                results_ref.lock().unwrap_or_else(|e| e.into_inner())[id] = Some(entry);
            });
            // SAFETY: erase the borrow lifetimes (worker, results).
            // The ack loop below blocks this function until every
            // machine has finished and dropped its job closure, so no
            // erased borrow outlives its referent — the standard
            // scoped-thread-pool argument. For that argument to hold,
            // `submit` must not unwind between the first `send` and the
            // last ack: the only fallible operations in that window are
            // the channel send/recv below, and both abort (not panic)
            // on failure via `protocol_fatal`.
            unsafe fn erase<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
                std::mem::transmute(job)
            }
            let job: Job = unsafe { erase(job) };
            if tx.send(job).is_err() {
                protocol_fatal("machine thread exited with jobs in flight");
            }
        }

        for _ in 0..self.p {
            if inner.ack_rx.recv().is_err() {
                protocol_fatal("machine thread exited before acknowledging its job");
            }
        }
        self.generation.fetch_add(1, Ordering::SeqCst);

        let slots = results.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(self.p);
        let mut failure: Option<(usize, String)> = None;
        // Peers of a dead machine die too, from the poisoned barrier /
        // detector. Report the root cause, not a cascade victim.
        let cascade = "a peer machine died mid-computation";
        for (machine, slot) in slots.into_iter().enumerate() {
            match slot.expect("machine finished without reporting a result") {
                Ok(r) => out.push(r),
                Err(message) => {
                    let prefer = match &failure {
                        None => true,
                        Some((_, kept)) => kept.contains(cascade) && !message.contains(cascade),
                    };
                    if prefer {
                        failure = Some((machine, message));
                    }
                }
            }
        }
        let mut result = match failure {
            Some((machine, message)) => Err(ClusterError::MachinePanicked { machine, message }),
            None => Ok((out, TrafficReport::from_stats(&stats))),
        };
        if result.is_ok() {
            if let Some(job) = &chaos_job {
                let dropped = job.dropped();
                if dropped > 0 {
                    result = Err(ClusterError::MessagesLost { dropped });
                }
            }
        }
        if let Some(h) = &obs {
            h.jobs_total.inc();
            h.barrier_generations.add(barrier.generations());
            if barrier.is_poisoned() {
                h.barrier_poisoned.inc();
            }
            if result.is_err() {
                h.jobs_failed.inc();
            }
        }
        result
    }

    /// Gracefully stops the machine threads: parked machines wake on
    /// channel disconnect and exit; all threads are joined. Idempotent.
    /// Subsequent [`PersistentCluster::submit`] calls return
    /// [`ClusterError::ShutDown`].
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.job_txs = None; // disconnects every job channel
        for t in inner.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for PersistentCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reusable_across_many_jobs() {
        let cluster = PersistentCluster::new(3);
        for round in 0..20u64 {
            let (results, traffic) = cluster
                .submit::<u64, u64, _>(|h| {
                    let next = (h.id() + 1) % h.num_machines();
                    h.send(next, round * 10 + h.id() as u64);
                    h.barrier();
                    let got = h.drain();
                    assert_eq!(got.len(), 1);
                    got[0].payload
                })
                .unwrap();
            let mut sorted = results;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..3).map(|i| round * 10 + i).collect::<Vec<_>>());
            assert_eq!(traffic.total_msgs(), 3);
        }
        assert_eq!(cluster.generation(), 20);
    }

    #[test]
    fn panic_fails_job_but_cluster_survives() {
        let cluster = PersistentCluster::new(4);
        // Healthy machines enter a barrier the panicking machine never
        // reaches — exactly the deadlock poisoning must break.
        let err = cluster
            .submit::<u64, u64, _>(|h| {
                if h.id() == 2 {
                    panic!("injected failure");
                }
                h.barrier_sum(1)
            })
            .unwrap_err();
        match err {
            ClusterError::MachinePanicked { machine: _, message } => {
                // The first-reported machine may be the injected one or
                // a peer that panicked on the poisoned barrier.
                assert!(
                    message.contains("injected failure") || message.contains("poisoned"),
                    "unexpected message: {message}"
                );
            }
            other => panic!("expected MachinePanicked, got {other:?}"),
        }
        // The same cluster immediately serves the next job.
        let (sums, _) = cluster.submit::<u64, u64, _>(|h| h.barrier_sum(1)).unwrap();
        assert_eq!(sums, vec![4, 4, 4, 4]);
    }

    #[test]
    fn async_style_job_poisoned_on_panic() {
        let cluster = PersistentCluster::new(3);
        let err = cluster
            .submit::<u64, u64, _>(|h| {
                if h.id() == 0 {
                    panic!("async worker died");
                }
                // Peers idle-poll quiescence, as the async engine does;
                // poison must turn this loop into a contained panic.
                let mut polls = 0u64;
                loop {
                    h.set_idle(true);
                    if h.quiescent() {
                        return polls;
                    }
                    polls += 1;
                    std::thread::yield_now();
                }
            })
            .unwrap_err();
        assert!(matches!(err, ClusterError::MachinePanicked { .. }));
        // Cluster still alive.
        let (ok, _) = cluster.submit::<u64, u64, _>(|h| h.id() as u64).unwrap();
        assert_eq!(ok, vec![0, 1, 2]);
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let cluster = PersistentCluster::new(2);
        let (r, _) = cluster.submit::<u64, usize, _>(|h| h.id()).unwrap();
        assert_eq!(r, vec![0, 1]);
        cluster.shutdown();
        cluster.shutdown(); // idempotent
        assert_eq!(cluster.submit::<u64, (), _>(|_| ()).unwrap_err(), ClusterError::ShutDown);
    }

    #[test]
    fn concurrent_submitters_serialize() {
        let cluster = std::sync::Arc::new(PersistentCluster::new(2));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = cluster.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let (sums, _) = c.submit::<u64, u64, _>(|h| h.barrier_sum(1)).unwrap();
                        assert_eq!(sums, vec![2, 2]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cluster.generation(), 40);
    }

    #[test]
    fn chaos_crash_fails_job_deterministically() {
        use crate::chaos::FaultPlan;
        let cluster = PersistentCluster::new(3);
        let plan = FaultPlan::new(1).crash(1, 2);
        for _ in 0..3 {
            let run = ChaosRun::new(plan.clone(), 0, 0);
            let err = cluster
                .submit_with_chaos::<u64, u64, _>(Some(&run), |h| {
                    for step in 0..4u32 {
                        h.fault_point(step);
                        h.barrier();
                    }
                    7
                })
                .unwrap_err();
            match err {
                ClusterError::MachinePanicked { message, .. } => {
                    assert!(
                        message.contains("crashed at superstep 2") || message.contains("poisoned"),
                        "unexpected: {message}"
                    );
                }
                other => panic!("expected MachinePanicked, got {other:?}"),
            }
        }
        // A healed attempt succeeds on the same cluster.
        let run = ChaosRun::new(plan.heal_after(1), 0, 1);
        let (ok, _) = cluster
            .submit_with_chaos::<u64, u64, _>(Some(&run), |h| {
                for step in 0..4u32 {
                    h.fault_point(step);
                    h.barrier();
                }
                7
            })
            .unwrap();
        assert_eq!(ok, vec![7, 7, 7]);
    }

    #[test]
    fn chaos_drops_surface_as_messages_lost() {
        use crate::chaos::FaultPlan;
        let cluster = PersistentCluster::new(2);
        let run = ChaosRun::new(FaultPlan::new(3).with_drop(1.0), 0, 0);
        let err = cluster
            .submit_with_chaos::<u64, u64, _>(Some(&run), |h| {
                h.send(1 - h.id(), 5);
                h.barrier();
                h.drain().iter().map(|e| e.payload).sum()
            })
            .unwrap_err();
        assert_eq!(err, ClusterError::MessagesLost { dropped: 2 });
        assert_eq!(run.dropped(), 2);
        assert!(err.is_recoverable());
    }

    #[test]
    fn chaos_dup_and_reorder_preserve_superstep_delivery() {
        use crate::chaos::FaultPlan;
        let cluster = PersistentCluster::new(2);
        // Dup and reorder perturb the mailbox but lose nothing: after
        // the barrier each machine must still see every payload at
        // least once, and the barrier must flush held-back messages.
        let plan = FaultPlan::new(11).with_dup(0.5).with_reorder(0.5);
        let run = ChaosRun::new(plan, 0, 0);
        let (got, _) = cluster
            .submit_with_chaos::<u64, Vec<u64>, _>(Some(&run), |h| {
                for m in 0..8u64 {
                    h.send(1 - h.id(), m);
                }
                h.barrier();
                let mut seen: Vec<u64> = h.drain().iter().map(|e| e.payload).collect();
                seen.sort_unstable();
                seen.dedup();
                seen
            })
            .unwrap();
        for machine in got {
            assert_eq!(machine, (0..8).collect::<Vec<_>>());
        }
        assert_eq!(run.dropped(), 0);
    }

    #[test]
    fn chaos_slow_links_bill_extra_sim_time() {
        use crate::chaos::FaultPlan;
        let cluster = PersistentCluster::with_model(2, NetModel::FREE);
        let run = ChaosRun::new(FaultPlan::new(0).slow_link(0, 1, 7_000), 0, 0);
        let (_, traffic) = cluster
            .submit_with_chaos::<u64, (), _>(Some(&run), |h| {
                if h.id() == 0 {
                    h.send(1, 1);
                    h.send(1, 2);
                }
                h.barrier();
                h.drain();
            })
            .unwrap();
        // Machine 0's two sends over the slowed link: 2 × 7 µs on an
        // otherwise free network.
        assert_eq!(traffic.per_machine[0].2, 14_000);
        assert_eq!(traffic.per_machine[1].2, 0);
    }

    #[test]
    fn disarmed_chaos_job_runs_clean() {
        use crate::chaos::FaultPlan;
        let cluster = PersistentCluster::new(2);
        let plan = FaultPlan::new(9).crash(0, 0).with_drop(1.0).arm_jobs(10..11);
        let run = ChaosRun::new(plan, 3, 0); // job 3 is outside 10..11
        let (sums, _) = cluster
            .submit_with_chaos::<u64, u64, _>(Some(&run), |h| {
                h.fault_point(0);
                h.send(1 - h.id(), 1);
                h.barrier();
                h.drain().iter().map(|e| e.payload).sum::<u64>() + h.barrier_sum(1)
            })
            .unwrap();
        assert_eq!(sums, vec![3, 3]);
    }

    #[test]
    fn obs_accounts_jobs_links_and_crashes() {
        use crate::chaos::FaultPlan;
        let cluster = PersistentCluster::new(2);
        let obs = Obs::shared();
        cluster.set_obs(Arc::clone(&obs));
        cluster
            .submit::<u64, (), _>(|h| {
                h.send(1 - h.id(), 7);
                h.barrier();
                h.drain();
            })
            .unwrap();
        let run = ChaosRun::new(FaultPlan::new(5).crash(1, 0), 9, 0);
        let err = cluster
            .submit_with_chaos::<u64, (), _>(Some(&run), |h| {
                h.fault_point(0);
                let _ = h.try_barrier();
            })
            .unwrap_err();
        assert!(matches!(err, ClusterError::MachinePanicked { .. }));
        let snap = cgraph_obs::parse_text(&obs.metrics.render_text()).unwrap();
        assert_eq!(snap.counters["cgraph_comm_jobs_total"], 2);
        assert_eq!(snap.counters["cgraph_comm_jobs_failed_total"], 1);
        assert_eq!(snap.counters["cgraph_comm_machine_crashes_total"], 1);
        assert_eq!(snap.counters["cgraph_comm_barrier_poisoned_total"], 1);
        assert_eq!(snap.counters["cgraph_comm_msgs_sent_total{link=\"0->1\"}"], 1);
        assert_eq!(snap.counters["cgraph_comm_msgs_sent_total{link=\"1->0\"}"], 1);
        assert!(snap.counters["cgraph_comm_barrier_generations_total"] >= 1);
        // The crash left a deterministic trace event at its logical
        // coordinates (job 9, machine 1, superstep 0).
        let log = cgraph_obs::TraceSink::render(&obs.trace.drain());
        assert!(log.contains("job=9 attempt=0 step=0 machine=1 instant crash value=0"), "{log}");
    }

    #[test]
    fn borrowed_state_visible_to_jobs() {
        // Jobs may capture non-'static borrows (the engine's shards);
        // verify reads and writes through such borrows.
        let cluster = PersistentCluster::new(2);
        let data = [10u64, 20u64];
        let acc = Mutex::new(0u64);
        let (_, _) = cluster
            .submit::<u64, (), _>(|h| {
                let v = data[h.id()];
                *acc.lock().unwrap() += v;
            })
            .unwrap();
        assert_eq!(*acc.lock().unwrap(), 30);
    }
}
