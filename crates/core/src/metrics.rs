//! Response-time distributions — the measurement machinery behind
//! every figure of §4.
//!
//! Figures 7/9 plot per-query response times sorted ascending; Fig. 8
//! shows distribution summaries (box plots); Figs. 11/12 show
//! cumulative histograms with fixed bucket edges (0.2 s … 2.0 s).
//! [`ResponseStats`] computes all three views from one sorted sample,
//! beside an exact count and sum.
//!
//! A closed batch keeps every sample ([`ResponseStats::new`]). A
//! service that runs for hours cannot: each replica records every
//! completion into a fixed-size latency shard — exact count and sums, a
//! uniform sample of at most [`RESERVOIR_TRIPLES`] — and the service
//! reads its shards back through [`ResponseStats::sampled`].

use std::ops::Deref;
use std::time::Duration;

/// `round(total_nanos / n)` to the nearest nanosecond, in integer
/// arithmetic — *not* `Duration / u32`, which truncates toward zero and
/// loses up to a full nanosecond per call (visible when averaging
/// averages, as the service's per-query fold does). [`Duration::ZERO`]
/// for `n == 0`; saturates at `u64::MAX` nanoseconds.
pub(crate) fn mean_of(total_nanos: u128, n: u64) -> Duration {
    // A per-query fold fits 64 bits, and a single-source one divides by
    // one: the answer path pays no division, and never the 128-bit
    // library call.
    let nanos = match (u64::try_from(total_nanos), n) {
        (_, 0) => 0,
        (Ok(t), 1) => t,
        (Ok(t), _) if t <= u64::MAX - n / 2 => (t + n / 2) / n,
        _ => {
            let n = u128::from(n);
            u64::try_from(total_nanos.saturating_add(n / 2) / n).unwrap_or(u64::MAX)
        }
    };
    Duration::from_nanos(nanos)
}

/// Summary statistics over a stream of response times: the exact count
/// and nanosecond sum of the whole stream, and a sorted sample of it.
///
/// [`len`](Self::len), [`is_empty`](Self::is_empty) and
/// [`mean`](Self::mean) read the count and the sum, so they are exact
/// whatever the sample holds. Every order statistic —
/// [`sorted`](Self::sorted), [`min`](Self::min), [`max`](Self::max),
/// [`quantile`](Self::quantile), [`median`](Self::median),
/// [`fraction_within`](Self::fraction_within),
/// [`cumulative_histogram`](Self::cumulative_histogram),
/// [`five_number`](Self::five_number) — reads the sample. Built by
/// [`ResponseStats::new`] the sample is the whole stream and every view
/// is exact; built by [`ResponseStats::sampled`] (the service's stats)
/// the order statistics are those of a uniform sample.
#[derive(Clone, Debug)]
pub struct ResponseStats {
    count: u64,
    sum_nanos: u128,
    samples_sorted: Vec<Duration>,
}

impl ResponseStats {
    /// Builds stats from every sample of a stream (any order): the
    /// count is the number of samples.
    pub fn new(samples: Vec<Duration>) -> Self {
        let sum_nanos = samples.iter().map(Duration::as_nanos).sum();
        Self::sampled(samples.len() as u64, sum_nanos, samples)
    }

    /// Builds stats for a stream of `count` response times summing to
    /// `sum_nanos` nanoseconds, of which `sample` (any order, at most
    /// `count` long) is a uniform sample.
    pub fn sampled(count: u64, sum_nanos: u128, mut sample: Vec<Duration>) -> Self {
        debug_assert!(sample.len() as u64 <= count, "a sample larger than its stream");
        sample.sort_unstable();
        Self { count, sum_nanos, samples_sorted: sample }
    }

    /// Number of response times in the stream (exact).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when the stream is empty (exact).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The sample, sorted ascending (the series Figs. 7 and 9 plot):
    /// every response time for [`ResponseStats::new`], at most
    /// [`len`](Self::len) of them for [`ResponseStats::sampled`].
    pub fn sorted(&self) -> &[Duration] {
        &self.samples_sorted
    }

    /// Minimum of the sample.
    pub fn min(&self) -> Duration {
        self.samples_sorted.first().copied().unwrap_or_default()
    }

    /// Maximum of the sample (the "upper bound of query response
    /// time").
    pub fn max(&self) -> Duration {
        self.samples_sorted.last().copied().unwrap_or_default()
    }

    /// Arithmetic mean of the stream, from its exact count and sum,
    /// rounded to the nearest nanosecond — not truncated, as
    /// `Duration / u32` would. Returns [`Duration::ZERO`] for an empty
    /// stream.
    pub fn mean(&self) -> Duration {
        mean_of(self.sum_nanos, self.count)
    }

    /// Quantile `q` in `[0, 1]` of the sample by the **nearest-rank**
    /// rule: the returned value is always an actual sample, at sorted
    /// index `round((n - 1) · q)` (ties round half away from zero, per
    /// [`f64::round`]). No interpolation is performed, so `q = 0.0`
    /// is exactly [`ResponseStats::min`], `q = 1.0` is exactly
    /// [`ResponseStats::max`], and a single-sample distribution
    /// returns that sample for every `q`. Out-of-range `q` is clamped
    /// into `[0, 1]`; a NaN `q` is treated as `0.0`. Returns
    /// [`Duration::ZERO`] for an empty sample.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.samples_sorted.is_empty() {
            return Duration::ZERO;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let idx = ((self.samples_sorted.len() as f64 - 1.0) * q).round() as usize;
        self.samples_sorted[idx]
    }

    /// Median (p50) of the sample.
    pub fn median(&self) -> Duration {
        self.quantile(0.5)
    }

    /// Fraction of the sample at or below `threshold` — e.g. "85%
    /// queries return within 0.4 second".
    pub fn fraction_within(&self, threshold: Duration) -> f64 {
        if self.samples_sorted.is_empty() {
            return 0.0;
        }
        let n = self.samples_sorted.partition_point(|&d| d <= threshold);
        n as f64 / self.samples_sorted.len() as f64
    }

    /// Cumulative histogram of the sample over the given bucket edges:
    /// `result[i]` is the percentage (0–100) of samples ≤ `edges[i]`
    /// (Figs. 11/12's presentation).
    pub fn cumulative_histogram(&self, edges: &[Duration]) -> Vec<f64> {
        edges.iter().map(|&e| self.fraction_within(e) * 100.0).collect()
    }

    /// Five-number summary (min, q1, median, q3, max) of the sample —
    /// the box plot of Fig. 8.
    pub fn five_number(&self) -> [Duration; 5] {
        [self.min(), self.quantile(0.25), self.median(), self.quantile(0.75), self.max()]
    }
}

/// `[wait, exec, response]` triples one latency shard of the query
/// service — one per replica — keeps as its sample, at most: below
/// that many completions on a replica its sample is every completion.
pub const RESERVOIR_TRIPLES: usize = 4096;

/// One stream of `[wait, exec, response]` completions in fixed memory:
/// the exact count, three exact nanosecond sums, and a uniform sample
/// of at most [`RESERVOIR_TRIPLES`] triples, allocated once at
/// construction.
///
/// The sample is Algorithm R's reservoir. Completion `i` (from 0) draws
/// one slot uniformly from `0..=i` by splitmix64 of `i` — no clock and
/// no generator state, so a shard fed the same stream holds the same
/// slots. While the reservoir fills, the draw places `i` by the
/// inside-out Fisher–Yates shuffle; past that, a draw below
/// [`RESERVOIR_TRIPLES`] replaces that slot. The slots therefore hold a
/// uniform sample in uniformly random order, and any prefix of them is a
/// uniform sample too — what [`LatencyShard::merge`] takes. Up to
/// [`RESERVOIR_TRIPLES`] completions the sample is every completion.
#[derive(Debug)]
pub(crate) struct LatencyShard {
    count: u64,
    sums: [u128; 3],
    reservoir: Vec<[u64; 3]>,
}

impl LatencyShard {
    pub(crate) fn new() -> Self {
        Self { count: 0, sums: [0; 3], reservoir: Vec::with_capacity(RESERVOIR_TRIPLES) }
    }

    /// Records one completion's `[wait, exec, response]`.
    pub(crate) fn record(&mut self, triple: [Duration; 3]) {
        let i = self.count;
        self.count += 1;
        let nanos = triple.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        for (sum, ns) in self.sums.iter_mut().zip(nanos) {
            *sum += u128::from(ns);
        }
        // Uniform on 0..=i: the high word of a 64 × 64-bit product.
        let slot = ((u128::from(splitmix64(i)) * (u128::from(i) + 1)) >> 64) as usize;
        if self.reservoir.len() < RESERVOIR_TRIPLES {
            self.reservoir.push(nanos);
            let last = self.reservoir.len() - 1;
            self.reservoir.swap(slot, last);
        } else if slot < RESERVOIR_TRIPLES {
            self.reservoir[slot] = nanos;
        }
    }

    /// Reads `shards` as one stream: counts and sums added, and one
    /// uniform sample of the union. A shard still holding every
    /// completion gives all of them when every shard does; otherwise
    /// each gives a prefix of its reservoir in proportion to its count,
    /// at the highest rate every shard can afford, so the union stays a
    /// uniform sample. Copies at most `shards.len()` ×
    /// [`RESERVOIR_TRIPLES`] triples and sorts nothing — callers hold
    /// the shards' locks across this and sort afterwards
    /// ([`LatencyMerge::into_stats`]).
    pub(crate) fn merge<S: Deref<Target = LatencyShard>>(shards: &[S]) -> LatencyMerge {
        // The binding rate: the smallest share `len / count` any shard
        // holds of its own stream (1 while every shard holds it all).
        let (mut rate_len, mut rate_count) = (1u128, 1u128);
        for s in shards.iter().filter(|s| s.count > 0) {
            let (len, count) = (s.reservoir.len() as u128, u128::from(s.count));
            if len * rate_count < rate_len * count {
                (rate_len, rate_count) = (len, count);
            }
        }
        let mut merged = LatencyMerge { count: 0, sums: [0; 3], sample: Vec::new() };
        for s in shards {
            merged.count += s.count;
            for (m, v) in merged.sums.iter_mut().zip(s.sums) {
                *m += v;
            }
            let take = (u128::from(s.count) * rate_len + rate_count / 2) / rate_count;
            let take = (take as usize).min(s.reservoir.len());
            merged.sample.extend_from_slice(&s.reservoir[..take]);
        }
        merged
    }
}

/// Latency shards read together by [`LatencyShard::merge`]: exact
/// totals and one unsorted uniform sample.
pub(crate) struct LatencyMerge {
    count: u64,
    sums: [u128; 3],
    sample: Vec<[u64; 3]>,
}

impl LatencyMerge {
    /// The `[wait, exec, response]` distributions, each sorted.
    pub(crate) fn into_stats(self) -> [ResponseStats; 3] {
        std::array::from_fn(|c| {
            let column = self.sample.iter().map(|t| Duration::from_nanos(t[c])).collect();
            ResponseStats::sampled(self.count, self.sums[c], column)
        })
    }
}

/// splitmix64's increment: 2^64 over the golden ratio.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's finaliser (Stafford's variant 13): a bijective mix of
/// all 64 bits.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Output `i` (from 0) of the splitmix64 generator seeded with 0.
fn splitmix64(i: u64) -> u64 {
    mix64(i.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA))
}

/// Speedup of `baseline` over `ours` per sorted-rank position, as the
/// paper reports "21x-74x speedup over Titan" (rank-wise on the sorted
/// curves of Fig. 7).
pub fn rankwise_speedup(ours: &ResponseStats, baseline: &ResponseStats) -> Vec<f64> {
    ours.sorted()
        .iter()
        .zip(baseline.sorted())
        .map(|(a, b)| b.as_secs_f64() / a.as_secs_f64().max(1e-12))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> ResponseStats {
        ResponseStats::new(v.iter().map(|&x| Duration::from_millis(x)).collect())
    }

    #[test]
    fn order_statistics() {
        let s = ms(&[50, 10, 30, 20, 40]);
        assert_eq!(s.min(), Duration::from_millis(10));
        assert_eq!(s.max(), Duration::from_millis(50));
        assert_eq!(s.median(), Duration::from_millis(30));
        assert_eq!(s.mean(), Duration::from_millis(30));
    }

    #[test]
    fn quantiles() {
        let s = ms(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(s.quantile(0.0), Duration::from_millis(1));
        assert_eq!(s.quantile(1.0), Duration::from_millis(10));
        assert_eq!(s.quantile(0.25), Duration::from_millis(3));
    }

    #[test]
    fn fraction_within_threshold() {
        let s = ms(&[100, 200, 300, 400]);
        assert_eq!(s.fraction_within(Duration::from_millis(250)), 0.5);
        assert_eq!(s.fraction_within(Duration::from_millis(400)), 1.0);
        assert_eq!(s.fraction_within(Duration::from_millis(50)), 0.0);
    }

    #[test]
    fn cumulative_histogram_percentages() {
        let s = ms(&[100, 300, 500, 700]);
        let edges: Vec<Duration> =
            [200u64, 400, 600, 800].iter().map(|&x| Duration::from_millis(x)).collect();
        assert_eq!(s.cumulative_histogram(&edges), vec![25.0, 50.0, 75.0, 100.0]);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = ResponseStats::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.quantile(0.5), Duration::ZERO);
        assert_eq!(s.fraction_within(Duration::from_secs(1)), 0.0);
    }

    #[test]
    fn mean_rounds_to_nearest_nanosecond() {
        // 1 ns + 2 ns over 2 samples: the true mean is 1.5 ns, which
        // must round up, not truncate to 1 ns.
        let s = ResponseStats::new(vec![Duration::from_nanos(1), Duration::from_nanos(2)]);
        assert_eq!(s.mean(), Duration::from_nanos(2));
        // 1 + 1 + 2 over 3: mean 4/3 ns rounds down to 1 ns.
        let s = ResponseStats::new(vec![
            Duration::from_nanos(1),
            Duration::from_nanos(1),
            Duration::from_nanos(2),
        ]);
        assert_eq!(s.mean(), Duration::from_nanos(1));
    }

    #[test]
    fn mean_of_rounds_to_nearest_nanosecond() {
        // The one division the service's per-query fold and every mean
        // share: 1 ns + 2 ns over 2 is 1.5 ns, which rounds up.
        assert_eq!(mean_of(1 + 2, 2), Duration::from_nanos(2));
        assert_eq!(mean_of(1 + 1 + 2, 3), Duration::from_nanos(1));
        assert_eq!(mean_of(0, 0), Duration::ZERO);
        assert_eq!(mean_of(u128::MAX, 1), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn sampled_stats_read_count_and_sum_apart_from_the_sample() {
        let ns = Duration::from_nanos;
        let s = ResponseStats::sampled(10, 55, vec![ns(3), ns(1), ns(2)]);
        // Exact, from the count and the sum: 55 ns over 10 is 5.5 ns.
        assert_eq!((s.len(), s.is_empty(), s.mean()), (10, false, ns(6)));
        // From the sample, sorted.
        assert_eq!(s.sorted(), &[ns(1), ns(2), ns(3)]);
        assert_eq!((s.min(), s.median(), s.max()), (ns(1), ns(2), ns(3)));
        assert_eq!(s.fraction_within(ns(2)), 2.0 / 3.0);
        // A stream whose sample is empty still has its count and mean.
        let s = ResponseStats::sampled(4, 8, Vec::new());
        assert_eq!((s.len(), s.mean(), s.quantile(0.5)), (4, ns(2), Duration::ZERO));
        // `new` is the sample that is the whole stream.
        let all = ResponseStats::new(vec![ns(5), ns(1)]);
        assert_eq!((all.len(), all.mean(), all.sorted()), (2, ns(3), &[ns(1), ns(5)][..]));
    }

    /// The triple of completion `i` of a test stream: `i` ns waiting,
    /// `2i` executing, their sum in all.
    fn triple(i: u64) -> [Duration; 3] {
        [Duration::from_nanos(i), Duration::from_nanos(2 * i), Duration::from_nanos(3 * i)]
    }

    fn shard_of(stream: std::ops::Range<u64>) -> LatencyShard {
        let mut shard = LatencyShard::new();
        for i in stream {
            shard.record(triple(i));
        }
        shard
    }

    #[test]
    fn a_shard_below_the_reservoir_size_is_exact() {
        let n = RESERVOIR_TRIPLES as u64;
        for stream in [0..0, 0..1, 0..1000, 0..n] {
            let [wait, exec, response] =
                LatencyShard::merge(&[&shard_of(stream.clone())]).into_stats();
            for (c, got) in [wait, exec, response].iter().enumerate() {
                let want = ResponseStats::new(stream.clone().map(|i| triple(i)[c]).collect());
                assert_eq!((got.len(), got.mean()), (want.len(), want.mean()), "column {c}");
                assert_eq!(got.sorted(), want.sorted(), "column {c}");
            }
        }
        // Two shards that each still hold everything merge exactly too.
        let (a, b) = (shard_of(0..3000), shard_of(3000..n + 1000));
        let [wait, ..] = LatencyShard::merge(&[&a, &b]).into_stats();
        assert_eq!(
            wait.sorted(),
            ResponseStats::new((0..n + 1000).map(|i| triple(i)[0]).collect()).sorted()
        );
    }

    #[test]
    fn shards_fed_the_same_stream_hold_the_same_slots() {
        let stream = 0..5 * RESERVOIR_TRIPLES as u64 + 17;
        let (a, b) = (shard_of(stream.clone()), shard_of(stream));
        assert_eq!(a.reservoir.len(), RESERVOIR_TRIPLES);
        assert_eq!(a.reservoir, b.reservoir);
        assert_eq!((a.count, a.sums), (b.count, b.sums));
        // The memory is the one allocation made at construction.
        assert_eq!(a.reservoir.capacity(), RESERVOIR_TRIPLES);
    }

    /// Pearson's χ² of `indices` (completion indices below `n`) against
    /// 16 equal-width index buckets.
    fn chi_squared(indices: impl Iterator<Item = u64>, n: u64) -> f64 {
        let mut buckets = [0u64; 16];
        for i in indices {
            buckets[(i * 16 / n) as usize] += 1;
        }
        let expected = buckets.iter().sum::<u64>() as f64 / 16.0;
        buckets.iter().map(|&o| (o as f64 - expected).powi(2) / expected).sum()
    }

    #[test]
    fn the_reservoir_is_uniform_over_completion_index() {
        // 15 degrees of freedom: χ² above 37.70 has probability 0.001.
        const CRITICAL: f64 = 37.70;
        let n = 1_000_000;
        let shard = shard_of(0..n);
        let whole = chi_squared(shard.reservoir.iter().map(|t| t[0]), n);
        assert!(whole < CRITICAL, "reservoir χ² = {whole}");
        // What `merge` takes of it is a prefix, which must be uniform too.
        let prefix = chi_squared(shard.reservoir[..1024].iter().map(|t| t[0]), n);
        assert!(prefix < CRITICAL, "prefix χ² = {prefix}");
        // The sums are exact whatever the sample holds.
        assert_eq!(shard.sums[0], u128::from(n * (n - 1) / 2));
    }

    #[test]
    fn merge_takes_shares_in_proportion_to_counts() {
        let k = RESERVOIR_TRIPLES as u64;
        let big = shard_of(0..10 * k);
        let small = shard_of(0..2 * k);
        let tiny = shard_of(0..100);
        let empty = LatencyShard::new();
        let m = LatencyShard::merge(&[&big, &empty, &small, &tiny]);
        assert_eq!(m.count, 12 * k + 100);
        let sum = |n: u64| u128::from(n * (n - 1) / 2);
        assert_eq!(m.sums[0], sum(10 * k) + sum(2 * k) + sum(100));
        // The big shard binds at 1/10: all of its reservoir, a fifth of
        // the small one's, and 10 of the tiny one's 100.
        assert_eq!(m.sample.len() as u64, k + (2 * k + 5) / 10 + 10);
        assert_eq!(&m.sample[..RESERVOIR_TRIPLES], &big.reservoir[..]);
        let [wait, _, response] = m.into_stats();
        assert_eq!(wait.len() as u64, 12 * k + 100);
        assert!(response.sorted().len() <= 2 * RESERVOIR_TRIPLES);
        assert_eq!(wait.mean(), mean_of(sum(10 * k) + sum(2 * k) + sum(100), 12 * k + 100));
    }

    #[test]
    fn single_sample_distribution() {
        let s = ms(&[7]);
        assert_eq!(s.mean(), Duration::from_millis(7));
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Duration::from_millis(7), "q = {q}");
        }
    }

    #[test]
    fn quantile_extremes_hit_min_and_max() {
        let s = ms(&[5, 1, 9, 3, 7, 2, 8]);
        assert_eq!(s.quantile(0.0), s.min());
        assert_eq!(s.quantile(1.0), s.max());
        // Out-of-range and NaN inputs are clamped, never panic.
        assert_eq!(s.quantile(-3.0), s.min());
        assert_eq!(s.quantile(42.0), s.max());
        assert_eq!(s.quantile(f64::NAN), s.min());
    }

    #[test]
    fn quantile_nearest_rank_is_always_a_sample() {
        let s = ms(&[10, 20, 30, 40]);
        // (n - 1) · q = 3 × 0.5 = 1.5 → rounds half away from zero to
        // index 2: the nearest-rank contract, not an interpolation.
        assert_eq!(s.quantile(0.5), Duration::from_millis(30));
        for q in [0.1, 0.33, 0.66, 0.9] {
            assert!(s.sorted().contains(&s.quantile(q)), "q = {q} must return a sample");
        }
    }

    #[test]
    fn zero_latency_samples_are_first_class() {
        // Cache hits complete with a literal Duration::ZERO exec (and
        // near-zero response) sample; every statistic must treat zeros
        // as ordinary points, not drop or blow up on them.
        let s = ResponseStats::new(vec![Duration::ZERO, Duration::ZERO, Duration::from_millis(10)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Duration::ZERO);
        assert_eq!(s.quantile(0.0), Duration::ZERO);
        assert_eq!(s.median(), Duration::ZERO);
        // round(10 ms / 3) to the nearest nanosecond.
        assert_eq!(s.mean(), Duration::from_nanos(3_333_333));
        // A zero threshold counts the zero samples (<=, not <).
        assert!((s.fraction_within(Duration::ZERO) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.five_number()[0], Duration::ZERO);
        // A rank served in zero time must not produce an infinite or
        // NaN rankwise speedup.
        let sp = rankwise_speedup(&s, &ms(&[1, 2, 3]));
        assert!(sp.iter().all(|v| v.is_finite()), "{sp:?}");
    }

    #[test]
    fn all_zero_distribution_is_safe() {
        // Every query answered from the cache: the entire distribution
        // collapses to zero and all views must stay well-defined.
        let s = ResponseStats::new(vec![Duration::ZERO; 4]);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert_eq!(s.fraction_within(Duration::ZERO), 1.0);
        assert_eq!(
            s.cumulative_histogram(&[Duration::ZERO, Duration::from_millis(1)]),
            vec![100.0, 100.0]
        );
        let sp = rankwise_speedup(&s, &s);
        assert!(sp.iter().all(|v| v.is_finite() && *v >= 0.0), "{sp:?}");
    }

    #[test]
    fn speedup_rankwise() {
        let ours = ms(&[10, 20]);
        let base = ms(&[100, 400]);
        let sp = rankwise_speedup(&ours, &base);
        assert_eq!(sp.len(), 2);
        assert!((sp[0] - 10.0).abs() < 1e-9);
        assert!((sp[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn five_number_summary() {
        let s = ms(&[1, 2, 3, 4, 5]);
        let f = s.five_number();
        assert_eq!(f[0], Duration::from_millis(1));
        assert_eq!(f[2], Duration::from_millis(3));
        assert_eq!(f[4], Duration::from_millis(5));
    }
}
