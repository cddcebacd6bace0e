//! The host-contention sensor.
//!
//! The sizing host is a two-vCPU guest whose vCPUs share physical
//! cores with other guests. While a neighbour is busy on the sibling
//! hyperthread, code with instruction-level parallelism runs about
//! 1.5x slower — for seconds or for ten minutes at a time — and every
//! time the benchmark takes moves with it (`CALIBRATION.md`). The
//! sensor measures that state from inside the run: a thread of the
//! benchmark's own wakes every few milliseconds, runs a fixed
//! register-only kernel, and records what the kernel cost in *thread
//! CPU time* — which excludes being descheduled by the workload's
//! threads but includes every cycle lost to the sibling. The mean cost
//! over an interval, as a multiple of the kernel's cost on a quiet
//! host, is the interval's **slowdown**.
//!
//! Every time the benchmark bounds is then stated for a quiet host:
//! [`quiet`] divides it by `slowdown ^ elasticity`. The kernel shares
//! no code and no data with the program under test, so a change to the
//! program cannot move the sensor — a real gain or loss passes through
//! the adjustment untouched, and on a quiet host (slowdown 1) the
//! adjustment is the identity.

use cgraph_comm::thread_cpu_time;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations of the kernel per reading.
const KERNEL_ITERATIONS: u64 = 100_000;
/// Pause between readings: the sensor takes ~2 % of one vCPU.
const PERIOD: Duration = Duration::from_millis(5);
/// What one reading costs on a quiet vCPU of the sizing host (Xeon
/// @ 2.1 GHz): the unit of slowdown. On another machine every
/// slowdown is off by one constant factor, which no comparison of two
/// commits on that machine sees.
pub const QUIET_NS: f64 = 96_000.0;
/// A measured time (or latency percentile) stated for a quiet host:
/// divided by `slowdown ^ elasticity`, the workload's elasticity to
/// the sensor (`workload::Spec::elasticity`).
pub fn quiet(measured: f64, slowdown: f64, elasticity: f64) -> f64 {
    measured / slowdown.powf(elasticity)
}

/// A closed loop's completion rate stated for a quiet host. A closed
/// loop's rate is its latency in disguise (queries in flight divided
/// by latency). An open loop's completion rate is the offered rate,
/// whatever the host does, and is never adjusted.
pub fn quiet_rate(measured: f64, slowdown: f64, elasticity: f64) -> f64 {
    measured * slowdown.powf(elasticity)
}

/// Four interleaved dependency chains — the port pressure that
/// contention for a physical core takes away. No memory traffic.
#[inline(never)]
fn kernel(n: u64, seed: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (seed, 2u64, 3u64, 4u64);
    for i in 0..n {
        a = a.wrapping_add(i ^ b);
        b = b.wrapping_mul(3).wrapping_add(i);
        c ^= a >> 3;
        d = d.wrapping_add(c & i);
    }
    a ^ b ^ c ^ d
}

#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub at: Instant,
    pub cost_ns: f64,
}

/// A running sensor thread.
pub struct Sensor {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Reading>>,
}

impl Sensor {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("host-sensor".into())
            .spawn(move || {
                let mut readings = Vec::with_capacity(1 << 14);
                let mut sink = 0u64;
                while !flag.load(Ordering::Relaxed) {
                    let before = thread_cpu_time();
                    sink ^= kernel(std::hint::black_box(KERNEL_ITERATIONS), sink);
                    let cost = thread_cpu_time().saturating_sub(before);
                    readings.push(Reading { at: Instant::now(), cost_ns: cost.as_nanos() as f64 });
                    std::thread::sleep(PERIOD);
                }
                std::hint::black_box(sink);
                readings
            })
            .expect("spawn the host sensor");
        Self { stop, handle }
    }

    /// Stops the thread and returns everything it read.
    pub fn finish(self) -> Readings {
        self.stop.store(true, Ordering::Relaxed);
        Readings(self.handle.join().expect("host sensor panicked"))
    }
}

/// The readings of one run, in time order.
pub struct Readings(pub Vec<Reading>);

impl Readings {
    /// Mean slowdown over `[from, until]`; `None` when the sensor took
    /// no reading there.
    pub fn slowdown(&self, from: Instant, until: Instant) -> Option<f64> {
        let lo = self.0.partition_point(|r| r.at < from);
        let hi = self.0.partition_point(|r| r.at <= until);
        let inside = &self.0[lo..hi];
        (!inside.is_empty())
            .then(|| inside.iter().map(|r| r.cost_ns).sum::<f64>() / inside.len() as f64 / QUIET_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_cost_of_the_interval_in_quiet_units() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let readings = Readings(vec![
            Reading { at: at(0), cost_ns: QUIET_NS },
            Reading { at: at(10), cost_ns: QUIET_NS * 2.0 },
            Reading { at: at(20), cost_ns: QUIET_NS * 1.0 },
            Reading { at: at(30), cost_ns: QUIET_NS * 9.0 },
        ]);
        assert_eq!(readings.slowdown(at(0), at(20)), Some(4.0 / 3.0));
        assert_eq!(readings.slowdown(at(5), at(15)), Some(2.0));
        assert_eq!(readings.slowdown(at(31), at(40)), None);
    }

    #[test]
    fn the_adjustment_is_the_identity_on_a_quiet_host_and_cancels_a_slowdown() {
        assert_eq!(quiet(12.5, 1.0, 0.5), 12.5);
        assert_eq!(quiet_rate(800.0, 1.0, 1.25), 800.0);
        // A time that follows the host with the workload's elasticity
        // reads the same in both phases; so does the rate that goes
        // with it.
        let contended = 10.0 * 1.5f64.powf(0.5);
        assert!((quiet(contended, 1.5, 0.5) - 10.0).abs() < 1e-12);
        assert!((quiet_rate(256.0 / contended, 1.5, 0.5) - 25.6).abs() < 1e-12);
    }

    #[test]
    fn the_sensor_reads_while_it_runs() {
        let sensor = Sensor::start();
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(60));
        let until = Instant::now();
        let readings = sensor.finish();
        assert!(readings.0.len() >= 3, "{} readings", readings.0.len());
        let s = readings.slowdown(from, until).expect("readings inside the interval");
        assert!(s > 0.1 && s < 50.0, "slowdown {s}");
    }
}
