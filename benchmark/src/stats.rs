//! Percentiles, slice medians and run-to-run spread.
//!
//! Two rules from the metrics guide live here: a timing is reported
//! as a median plus the highest percentile that still has at least
//! ten samples beyond it, and a run reports the *median over slices*
//! of each estimate so one scheduling hiccup on a two-core host moves
//! one slice, not the metric.

/// Percentiles the benchmark reports, ascending, each with the share
/// of samples beyond it in thousandths.
pub const TAIL_LADDER: [(f64, usize); 5] =
    [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// Minimum samples beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when even p90
/// is not supported.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= MIN_BEYOND * 1000)
        .map_or(50.0, |&(p, _)| p)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured event: when it completed (seconds from window start)
/// and the value attached to it (a latency in ms).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at_s: f64,
    pub value: f64,
}

/// `p`-th percentile of unsorted values; `0` when there are none.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, p)
}

/// The tail of unsorted values: their [`tail_percentile`]; `0` when
/// there are none.
pub fn tail_of(values: &[f64]) -> f64 {
    percentile_of(values, tail_percentile(values.len()))
}

/// One slice of a window: a fixed number of consecutive completions.
#[derive(Clone, Debug)]
pub struct Slice {
    /// When its first completion happened, seconds from window start.
    pub from_s: f64,
    /// When the first completion *after* it happened.
    pub until_s: f64,
    /// Its values, ascending.
    pub values: Vec<f64>,
}

impl Slice {
    /// Completions per second.
    pub fn rate(&self) -> f64 {
        self.values.len() as f64 / (self.until_s - self.from_s)
    }

    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }
}

/// Fewest slices a window is cut into.
pub const MIN_SLICES: usize = 3;

/// Cuts the completions inside `[0, window_s)` into slices of
/// `per_slice` consecutive completions each — slices of equal *work*,
/// so a workload with a periodic event (one commit per N queries)
/// has the same number of events in every slice, which equal spans of
/// time cannot promise. A slice lasts from its first completion to
/// the first completion after it; completions that do not fill a last
/// slice are dropped. With too few completions for [`MIN_SLICES`]
/// slices of that size the slices shrink; with fewer than two
/// completions there is no slice.
pub fn work_slices(samples: &[Sample], window_s: f64, per_slice: usize) -> Vec<Slice> {
    let mut inside: Vec<Sample> =
        samples.iter().filter(|s| s.at_s >= 0.0 && s.at_s < window_s).copied().collect();
    inside.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("completion times are never NaN"));
    if inside.len() < 2 {
        return Vec::new();
    }
    let per_slice = per_slice.min((inside.len() - 1) / MIN_SLICES).max(1);
    (0..(inside.len() - 1) / per_slice)
        .map(|i| {
            let span = &inside[i * per_slice..(i + 1) * per_slice];
            let mut values: Vec<f64> = span.iter().map(|s| s.value).collect();
            sort(&mut values);
            Slice { from_s: span[0].at_s, until_s: inside[(i + 1) * per_slice].at_s, values }
        })
        // Completions that share one instant to the nanosecond.
        .filter(|s| s.until_s > s.from_s)
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) gives them — the driver's rule.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn work_slices_hold_equal_work_and_time_their_own_span() {
        // 100 completions/s for 2 s, then 50/s for 4 s: 400 in all.
        let mut samples = Vec::new();
        for i in 0..200 {
            samples.push(Sample { at_s: i as f64 / 100.0, value: 1.0 });
        }
        for i in 0..200 {
            samples.push(Sample { at_s: 2.0 + i as f64 / 50.0, value: 3.0 });
        }
        // Outside the window, and out of order: dropped, sorted.
        samples.push(Sample { at_s: 6.5, value: 9.0 });
        samples.push(Sample { at_s: -0.1, value: 9.0 });
        samples.swap(0, 399);
        let slices = work_slices(&samples, 6.0, 100);
        // The last completion only closes the third slice.
        assert_eq!(slices.len(), 3);
        assert!(slices.iter().all(|s| s.values.len() == 100));
        assert!((slices[0].rate() - 100.0).abs() < 1e-9);
        assert!((slices[2].rate() - 50.0).abs() < 1e-9);
        assert_eq!((slices[0].mean(), slices[2].percentile(99.0)), (1.0, 3.0));
        assert_eq!((slices[1].from_s, slices[1].until_s), (1.0, 2.0));
    }

    #[test]
    fn work_slices_shrink_rather_than_vanish() {
        let samples: Vec<Sample> =
            (0..10).map(|i| Sample { at_s: i as f64, value: i as f64 }).collect();
        let slices = work_slices(&samples, 10.0, 1000);
        assert_eq!(slices.len(), MIN_SLICES);
        assert!(slices.iter().all(|s| s.values.len() == 3));
        assert!(work_slices(&samples[..1], 10.0, 1000).is_empty());
    }

    #[test]
    fn a_periodic_stall_lands_in_every_work_slice_alike() {
        // One 0.5-s stall per 100 completions, 100 completions/s
        // otherwise: every slice of 100 takes 1.5 s, whatever the
        // window's length is in stalls.
        let mut samples = Vec::new();
        let mut t = 0.0;
        for i in 0..1000 {
            if i % 100 == 50 {
                t += 0.5;
            }
            t += 0.01;
            samples.push(Sample { at_s: t, value: 1.0 });
        }
        let rates: Vec<f64> = work_slices(&samples, 20.0, 100).iter().map(Slice::rate).collect();
        assert_eq!(rates.len(), 9);
        assert!(rates.iter().all(|r| (r - 100.0 / 1.5).abs() < 1e-6), "{rates:?}");
    }

    #[test]
    fn percentiles_of_unsorted_and_empty_values() {
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_of(&[], 99.0), 0.0);
        // Fewer than a hundred samples: the tail is the median.
        assert_eq!(tail_of(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(tail_of(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
