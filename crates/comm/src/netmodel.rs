//! Analytic network cost model and per-machine traffic statistics.
//!
//! The paper treats "all communications as an abstraction of the I/O
//! hierarchy (i.e. memory, disk, and network latency)" (§3). Since our
//! machines are threads, real channel transfer is nearly free; this
//! model *attributes* what the same traffic would cost on a cluster
//! interconnect so scaling analyses can report communication time and
//! volume. It never sleeps — wall-clock benches measure real compute,
//! and simulated network time is reported separately.

use std::sync::atomic::{AtomicU64, Ordering};

/// Latency/bandwidth parameters of the simulated interconnect.
#[derive(Clone, Copy, Debug)]
pub struct NetModel {
    /// Fixed cost per message, nanoseconds (switch + stack latency).
    pub latency_ns_per_msg: u64,
    /// Bandwidth in bytes per microsecond (e.g. 10 GbE ≈ 1250 B/µs).
    pub bytes_per_us: u64,
    /// Fixed per-message header bytes added to every payload.
    pub header_bytes: usize,
}

impl NetModel {
    /// A 10-gigabit-Ethernet-like profile (the paper's "high speed
    /// network connections").
    pub const TEN_GBE: NetModel =
        NetModel { latency_ns_per_msg: 10_000, bytes_per_us: 1_250, header_bytes: 48 };

    /// An ideal zero-cost network (useful for isolating compute).
    pub const FREE: NetModel =
        NetModel { latency_ns_per_msg: 0, bytes_per_us: u64::MAX, header_bytes: 0 };

    /// Simulated time to move one `payload_bytes` message, in ns.
    pub fn msg_cost_ns(&self, payload_bytes: usize) -> u64 {
        let bytes = (payload_bytes + self.header_bytes) as u64;
        let transfer_ns = if self.bytes_per_us == u64::MAX {
            0
        } else {
            bytes.saturating_mul(1_000) / self.bytes_per_us.max(1)
        };
        self.latency_ns_per_msg + transfer_ns
    }
}

impl Default for NetModel {
    fn default() -> Self {
        Self::TEN_GBE
    }
}

/// Lock-free traffic counters for one machine. Shared via `Arc` with
/// the sending thread; relaxed ordering is sufficient because the
/// counters are only read after the cluster joins (the thread join
/// provides the happens-before edge).
#[derive(Debug, Default)]
pub struct NetStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    sim_net_ns: AtomicU64,
}

impl NetStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message of `payload_bytes` under `model`.
    pub fn record_send(&self, model: &NetModel, payload_bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(payload_bytes as u64, Ordering::Relaxed);
        self.sim_net_ns.fetch_add(model.msg_cost_ns(payload_bytes), Ordering::Relaxed);
    }

    /// Attributes extra simulated network nanoseconds (e.g. a chaos
    /// plan's [slow links](crate::chaos::SlowLink) layered on top of
    /// the base model's per-message cost).
    pub fn record_extra_ns(&self, ns: u64) {
        self.sim_net_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Messages sent so far.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Payload bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Simulated network nanoseconds attributed so far.
    pub fn sim_net_ns(&self) -> u64 {
        self.sim_net_ns.load(Ordering::Relaxed)
    }

    /// Zeroes all counters (between experiment repetitions).
    pub fn reset(&self) {
        self.msgs_sent.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.sim_net_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_includes_latency_and_transfer() {
        let m = NetModel { latency_ns_per_msg: 100, bytes_per_us: 1000, header_bytes: 0 };
        // 500 bytes at 1000 B/µs = 0.5 µs = 500 ns, + 100 latency
        assert_eq!(m.msg_cost_ns(500), 600);
    }

    #[test]
    fn free_network_costs_nothing() {
        assert_eq!(NetModel::FREE.msg_cost_ns(1_000_000), 0);
    }

    #[test]
    fn header_counted() {
        let m = NetModel { latency_ns_per_msg: 0, bytes_per_us: 1, header_bytes: 10 };
        assert_eq!(m.msg_cost_ns(0), 10_000); // 10 bytes at 1 B/µs
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let s = NetStats::new();
        let m = NetModel { latency_ns_per_msg: 5, bytes_per_us: u64::MAX - 1, header_bytes: 0 };
        s.record_send(&m, 100);
        s.record_send(&m, 50);
        assert_eq!(s.msgs_sent(), 2);
        assert_eq!(s.bytes_sent(), 150);
        assert!(s.sim_net_ns() >= 10);
        s.reset();
        assert_eq!(s.msgs_sent(), 0);
    }
}
