//! One job's fabric: `p` machine endpoints with all-to-all channels.
//!
//! A job reaches the machines through
//! [`PersistentCluster::submit`](crate::PersistentCluster::submit), which
//! builds a fresh fabric per job and hands every machine a
//! [`CommHandle`]. Each machine owns its shard exclusively — the paper's
//! "each processing unit computes on its own subgraph shard" — and all
//! cross-machine traffic goes through the handles.

use crate::async_rt::TerminationDetector;
use crate::barrier::{BarrierPoisoned, ReduceBarrier, Reduction};
use crate::chaos::ChaosJob;
use crate::message::{Envelope, WireSize};
use crate::netmodel::{NetModel, NetStats};
use crate::obs::{JobCoords, MachineObs, MachineObsCore};
use crate::MachineId;
use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::sync::Arc;

/// A machine's endpoint into the cluster fabric.
pub struct CommHandle<M> {
    id: MachineId,
    p: usize,
    senders: Vec<Sender<Envelope<M>>>,
    receiver: Receiver<Envelope<M>>,
    barrier: Arc<ReduceBarrier>,
    term: Arc<TerminationDetector>,
    model: NetModel,
    stats: Arc<NetStats>,
    chaos: Option<Arc<ChaosJob>>,
    /// Observability bundle (None = instrumentation off; every obs
    /// touch point is gated on it so uninstrumented runs pay nothing).
    obs: Option<Arc<MachineObs>>,
    /// Reorder fault: one message held back until the next send (which
    /// overtakes it) or the next barrier/idle transition (which flushes
    /// it so sync supersteps never leak messages across barriers).
    holdback: Mutex<Option<(MachineId, M)>>,
}

impl<M: WireSize> CommHandle<M> {
    /// This machine's ID.
    #[inline]
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Number of machines in the cluster.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.p
    }

    /// Sends `payload` to machine `to`. Self-sends are legal (they
    /// loop back through the local inbox) but cost no simulated
    /// network time.
    ///
    /// Under an armed chaos plan, non-self sends may be dropped
    /// (counted in [`CommHandle::chaos_dropped`]), duplicated,
    /// reordered (held back past the next send), or billed extra
    /// simulated nanoseconds for slow links. Self-sends are never
    /// perturbed: they model local work, not the network.
    pub fn send(&self, to: MachineId, payload: M)
    where
        M: Clone,
    {
        if to != self.id {
            if let Some(chaos) = &self.chaos {
                let extra = chaos.slow_extra_ns(self.id, to);
                if extra > 0 {
                    self.stats.record_extra_ns(extra);
                }
                if chaos.perturbs_messages() {
                    let p_drop = chaos.drop_prob();
                    if p_drop > 0.0 && chaos.roll(self.id) < p_drop {
                        // Lost on the wire: billed, never delivered,
                        // and never counted by termination detection
                        // (the counter stays balanced because no
                        // receiver will ever ack it).
                        self.stats.record_send(&self.model, payload.wire_size());
                        chaos.note_drop();
                        if let Some(obs) = &self.obs {
                            obs.note_drop();
                        }
                        return;
                    }
                    let p_dup = chaos.dup_prob();
                    if p_dup > 0.0 && chaos.roll(self.id) < p_dup {
                        if let Some(obs) = &self.obs {
                            obs.note_dup();
                        }
                        self.raw_send(to, payload.clone());
                    }
                    let p_reorder = chaos.reorder_prob();
                    if p_reorder > 0.0 && chaos.roll(self.id) < p_reorder {
                        // Hold this message back; release whatever was
                        // held before (it is now overtaken).
                        if let Some(obs) = &self.obs {
                            obs.note_reorder();
                        }
                        let prev = self.holdback.lock().replace((to, payload));
                        if let Some((pt, pm)) = prev {
                            self.raw_send(pt, pm);
                        }
                        return;
                    }
                }
            }
        }
        self.raw_send(to, payload);
    }

    /// The unperturbed send path.
    fn raw_send(&self, to: MachineId, payload: M) {
        if to != self.id {
            let bytes = payload.wire_size();
            self.stats.record_send(&self.model, bytes);
            if let Some(obs) = &self.obs {
                obs.note_send(to, bytes as u64);
            }
        }
        self.term.on_send();
        // Unbounded channel: send can only fail if the receiver was
        // dropped, which means a peer machine panicked — propagate.
        self.senders[to]
            .send(Envelope::new(self.id, to, payload))
            .expect("peer machine hung up (panicked?)");
    }

    /// Releases a held-back (reordered) message, if any. Called before
    /// every barrier and idle transition so faults never leak messages
    /// across superstep boundaries.
    fn flush_holdback(&self) {
        if let Some((to, payload)) = self.holdback.lock().take() {
            self.raw_send(to, payload);
        }
    }

    /// A scripted crash point: panics if the chaos plan schedules this
    /// machine to die at `superstep`. Workers call this at the top of
    /// each superstep; without an armed plan it is free.
    pub fn fault_point(&self, superstep: u32) {
        if let Some(obs) = &self.obs {
            obs.set_superstep(superstep);
        }
        if let Some(chaos) = &self.chaos {
            if chaos.should_crash(self.id, superstep) {
                if let Some(obs) = &self.obs {
                    obs.note_crash(superstep);
                }
                panic!("chaos: machine {} crashed at superstep {superstep}", self.id);
            }
        }
    }

    /// Messages dropped by the chaos plan so far this job (across all
    /// machines). Stable at superstep boundaries: after a barrier, and
    /// before any new sends, every machine reads the same value.
    pub fn chaos_dropped(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.dropped())
    }

    /// Non-blocking receive.
    ///
    /// The caller must call [`CommHandle::message_processed`] after
    /// fully handling the returned envelope (async mode relies on it;
    /// sync mode can use [`CommHandle::drain`] instead).
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        match self.receiver.try_recv() {
            Ok(env) => Some(env),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Acknowledges that a message obtained from [`CommHandle::try_recv`]
    /// has been fully processed (including any sends that processing
    /// performed).
    pub fn message_processed(&self) {
        self.term.on_processed();
    }

    /// Drains everything currently in the inbox, acknowledging each
    /// message. Used by the synchronous engine right after a barrier,
    /// when all peers' sends for the superstep are already visible.
    pub fn drain(&self) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        while let Some(env) = self.try_recv() {
            self.term.on_processed();
            out.push(env);
        }
        out
    }

    /// Superstep barrier carrying an all-reduced `u64` (typically the
    /// machine's count of active work; a global sum of 0 means halt).
    pub fn barrier_sum(&self, contribution: u64) -> u64 {
        self.flush_holdback();
        self.barrier.wait_sum(contribution)
    }

    /// Superstep barrier returning the combined sum/max/or over all
    /// machines' contributions.
    pub fn barrier_reduce(&self, contribution: u64) -> Reduction {
        self.flush_holdback();
        self.barrier.wait_reduce(contribution)
    }

    /// Plain barrier.
    pub fn barrier(&self) {
        self.flush_holdback();
        self.barrier.wait();
    }

    /// Non-panicking plain barrier: `Err` when a peer died. Recovery
    /// workers use this to save checkpointable state instead of
    /// unwinding.
    pub fn try_barrier(&self) -> Result<(), BarrierPoisoned> {
        self.flush_holdback();
        let out = self.barrier.try_wait();
        if out.is_err() {
            if let Some(obs) = &self.obs {
                obs.note_barrier_poisoned();
            }
        }
        out
    }

    /// Non-panicking reducing barrier: `Err` when a peer died.
    pub fn try_barrier_reduce(&self, contribution: u64) -> Result<Reduction, BarrierPoisoned> {
        self.flush_holdback();
        let out = self.barrier.try_wait_reduce(contribution);
        if out.is_err() {
            if let Some(obs) = &self.obs {
                obs.note_barrier_poisoned();
            }
        }
        out
    }

    /// Wide reducing barrier: every machine contributes an
    /// up-to-512-bit lane-activity mask
    /// ([`crate::barrier::REDUCE_WORDS`] × `u64`) and receives the
    /// word-wise bitwise OR across the cluster.
    pub fn barrier_reduce_words(
        &self,
        words: [u64; crate::barrier::REDUCE_WORDS],
    ) -> [u64; crate::barrier::REDUCE_WORDS] {
        self.flush_holdback();
        self.barrier.wait_reduce_words(words)
    }

    /// Non-panicking variant of [`CommHandle::barrier_reduce_words`]:
    /// `Err` when a peer died.
    pub fn try_barrier_reduce_words(
        &self,
        words: [u64; crate::barrier::REDUCE_WORDS],
    ) -> Result<[u64; crate::barrier::REDUCE_WORDS], BarrierPoisoned> {
        self.flush_holdback();
        let out = self.barrier.try_wait_reduce_words(words);
        if out.is_err() {
            if let Some(obs) = &self.obs {
                obs.note_barrier_poisoned();
            }
        }
        out
    }

    /// Marks this machine idle/busy for async termination detection.
    pub fn set_idle(&self, idle: bool) {
        if idle {
            // Going idle with a held-back message would deadlock
            // quiescence detection (the send's ack can never balance).
            self.flush_holdback();
        }
        self.term.set_idle(self.id, idle);
    }

    /// True when the whole cluster is quiescent (async mode exit test).
    pub fn quiescent(&self) -> bool {
        self.term.quiescent()
    }

    /// This machine's observability bundle, when the submitting
    /// cluster has one installed (see
    /// [`PersistentCluster::set_obs`](crate::PersistentCluster::set_obs)).
    /// Layers above use it to register their own metric handles and to
    /// record trace events under this machine's ring.
    pub fn obs(&self) -> Option<&Arc<MachineObs>> {
        self.obs.as_ref()
    }

    /// This machine's traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The interconnect model in force.
    pub fn model(&self) -> &NetModel {
        &self.model
    }
}

impl<M> Drop for CommHandle<M> {
    fn drop(&mut self) {
        // A message still held back when the handle dies (a machine
        // crash mid-superstep unwinds before any barrier could flush
        // it) was never delivered: account it as a drop so recovery
        // knows the job was lossy.
        if self.holdback.get_mut().is_some() {
            if let Some(chaos) = &self.chaos {
                chaos.note_drop();
            }
        }
    }
}

/// Aggregated per-machine traffic report of one job, returned by
/// [`PersistentCluster::submit`](crate::PersistentCluster::submit).
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Per-machine (msgs_sent, bytes_sent, sim_net_ns).
    pub per_machine: Vec<(u64, u64, u64)>,
}

impl TrafficReport {
    pub(crate) fn from_stats(stats: &[Arc<NetStats>]) -> Self {
        Self {
            per_machine: stats
                .iter()
                .map(|st| (st.msgs_sent(), st.bytes_sent(), st.sim_net_ns()))
                .collect(),
        }
    }

    /// Total messages across machines.
    pub fn total_msgs(&self) -> u64 {
        self.per_machine.iter().map(|m| m.0).sum()
    }

    /// Total payload bytes across machines.
    pub fn total_bytes(&self) -> u64 {
        self.per_machine.iter().map(|m| m.1).sum()
    }

    /// Max simulated network time across machines (the straggler).
    pub fn max_sim_net_ns(&self) -> u64 {
        self.per_machine.iter().map(|m| m.2).max().unwrap_or(0)
    }
}

/// One job's communication fabric: the per-machine handles plus the
/// shared pieces a supervisor needs to keep hold of (the barrier and
/// termination detector for poisoning on machine failure, the traffic
/// counters for reporting). Built fresh per job so a poisoned fabric
/// never leaks into the next batch.
pub(crate) struct Fabric<M> {
    pub(crate) handles: Vec<CommHandle<M>>,
    pub(crate) barrier: Arc<ReduceBarrier>,
    pub(crate) term: Arc<TerminationDetector>,
    pub(crate) stats: Vec<Arc<NetStats>>,
    /// Keepalive clones of every machine's inbox receiver. Held by the
    /// submitter for the lifetime of a job so that sends to a machine
    /// whose handle already unwound (crash) land in a never-read
    /// channel instead of panicking the healthy sender.
    pub(crate) receivers: Vec<Receiver<Envelope<M>>>,
}

impl<M: WireSize> Fabric<M> {
    /// Builds a fabric whose handles carry observability bundles. The
    /// caller supplies *pre-registered* per-machine cores (one per
    /// machine, index = machine id) so fabric construction never takes
    /// the metrics registry lock — jobs on a persistent cluster pay
    /// only an `Arc` clone per machine here.
    pub(crate) fn build_instrumented(
        p: usize,
        model: NetModel,
        chaos: Option<Arc<ChaosJob>>,
        obs: Option<(&[Arc<MachineObsCore>], JobCoords)>,
    ) -> Self {
        let mut senders: Vec<Sender<Envelope<M>>> = Vec::with_capacity(p);
        let mut receivers: Vec<Receiver<Envelope<M>>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(ReduceBarrier::new(p));
        let term = Arc::new(TerminationDetector::new(p));
        let handles: Vec<CommHandle<M>> = receivers
            .iter()
            .enumerate()
            .map(|(id, receiver)| CommHandle {
                id,
                p,
                senders: senders.clone(),
                receiver: receiver.clone(),
                barrier: barrier.clone(),
                term: term.clone(),
                model,
                stats: Arc::new(NetStats::new()),
                chaos: chaos.clone(),
                obs: obs.as_ref().map(|(cores, coords)| {
                    Arc::new(MachineObs::from_core(Arc::clone(&cores[id]), *coords))
                }),
                holdback: Mutex::new(None),
            })
            .collect();
        let stats = handles.iter().map(|h| h.stats.clone()).collect();
        Self { handles, barrier, term, stats, receivers }
    }
}

#[cfg(test)]
mod tests {
    use crate::PersistentCluster;

    #[test]
    fn ring_pass_sums() {
        // Each machine sends its id to the next; everyone receives one
        // message after a barrier.
        let cluster = PersistentCluster::new(4);
        let (results, report) = cluster
            .submit::<u64, u64, _>(|h| {
                let next = (h.id() + 1) % h.num_machines();
                h.send(next, h.id() as u64);
                h.barrier();
                let got = h.drain();
                assert_eq!(got.len(), 1);
                got[0].payload
            })
            .unwrap();
        let mut sorted = results.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(report.total_msgs(), 4);
        assert_eq!(report.total_bytes(), 4 * 8);
    }

    #[test]
    fn self_send_costs_no_network() {
        let cluster = PersistentCluster::new(1);
        let (_, report) = cluster
            .submit::<u64, (), _>(|h| {
                h.send(0, 99);
                let got = h.drain();
                assert_eq!(got[0].payload, 99);
            })
            .unwrap();
        assert_eq!(report.total_msgs(), 0); // self-sends not billed
    }

    #[test]
    fn barrier_sum_agrees_everywhere() {
        let cluster = PersistentCluster::new(3);
        let (results, _) =
            cluster.submit::<(), u64, _>(|h| h.barrier_sum(h.id() as u64 + 1)).unwrap();
        assert_eq!(results, vec![6, 6, 6]);
    }

    #[test]
    fn multi_superstep_message_flow() {
        // 3 supersteps; each machine forwards an accumulating token.
        let cluster = PersistentCluster::new(3);
        let (results, _) = cluster
            .submit::<u64, u64, _>(|h| {
                let mut acc = 0u64;
                let mut token = h.id() as u64;
                for _ in 0..3 {
                    h.send((h.id() + 1) % 3, token);
                    h.barrier();
                    let msgs = h.drain();
                    assert_eq!(msgs.len(), 1);
                    token = msgs[0].payload + 1;
                    acc += token;
                    h.barrier();
                }
                acc
            })
            .unwrap();
        // Tokens rotate and increment once per hop; after 3 supersteps
        // every machine has accumulated 9 (worked out by hand).
        assert_eq!(results, vec![9, 9, 9]);
    }

    #[test]
    fn async_quiescence_across_machines() {
        let cluster = PersistentCluster::new(3);
        let (results, _) = cluster
            .submit::<u64, u64, _>(|h| {
                // machine 0 seeds a countdown token
                if h.id() == 0 {
                    h.send(1, 20);
                }
                let mut processed = 0u64;
                loop {
                    match h.try_recv() {
                        Some(env) => {
                            h.set_idle(false);
                            if env.payload > 0 {
                                h.send((h.id() + 1) % 3, env.payload - 1);
                            }
                            processed += 1;
                            h.message_processed();
                        }
                        None => {
                            h.set_idle(true);
                            if h.quiescent() {
                                return processed;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            })
            .unwrap();
        assert_eq!(results.iter().sum::<u64>(), 21);
    }
}
