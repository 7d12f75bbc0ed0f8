//! Order statistics over raw samples: medians, percentiles with the
//! "at least ten samples beyond it" rule, and per-slice reduction.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of `sorted` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it —
/// a tail estimated from a handful of points is noise, not a percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    let rank = rank.clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// One completed request: when the reply arrived (ns on the run's
/// monotonic clock) and how long it took from submission — or, in an
/// open loop, from the instant it was due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Completion instant, ns since the run's clock origin.
    pub done_ns: u64,
    /// Latency in ns.
    pub latency_ns: u64,
}

/// What one slice of the measured window saw.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Completions inside the slice.
    pub completed: u64,
    /// Sorted latencies of those completions (ns).
    pub latencies: Vec<u64>,
    /// Slice length in seconds.
    pub secs: f64,
}

impl Slice {
    /// Completions per second.
    pub fn tps(&self) -> f64 {
        self.completed as f64 / self.secs
    }
}

/// Bin `samples` into the slices delimited by `bounds` (ns, ascending,
/// `bounds.len() - 1` slices). Samples outside the window are ignored.
pub fn slice_samples(samples: &[Sample], bounds: &[u64]) -> Vec<Slice> {
    let n = bounds.len().saturating_sub(1);
    let mut out: Vec<Slice> = (0..n)
        .map(|i| Slice {
            secs: (bounds[i + 1] - bounds[i]) as f64 / 1e9,
            ..Slice::default()
        })
        .collect();
    for s in samples {
        if n == 0 || s.done_ns < bounds[0] || s.done_ns >= bounds[n] {
            continue;
        }
        let i = bounds.partition_point(|b| *b <= s.done_ns) - 1;
        out[i].completed += 1;
        out[i].latencies.push(s.latency_ns);
    }
    for s in &mut out {
        s.latencies.sort_unstable();
    }
    out
}

/// Median over slices of a per-slice figure; slices where the figure is
/// undefined (`None`) are skipped.
pub fn median_over<T>(slices: &[T], f: impl Fn(&T) -> Option<f64>) -> Option<f64> {
    let vals: Vec<f64> = slices.iter().filter_map(f).collect();
    median(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&v, 99.0), Some(990));
        // One sample fewer and the rule refuses.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(percentile(&[], 50.0), None);
        // The median of 20 samples leaves exactly ten beyond it.
        let small: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&small, 50.0), Some(10));
        assert_eq!(percentile(&small[..19], 50.0), None);
    }

    #[test]
    fn slicing_bins_by_completion_time() {
        let samples = [
            Sample {
                done_ns: 5,
                latency_ns: 50,
            }, // before the window
            Sample {
                done_ns: 10,
                latency_ns: 30,
            }, // slice 0 (inclusive start)
            Sample {
                done_ns: 19,
                latency_ns: 10,
            }, // slice 0
            Sample {
                done_ns: 20,
                latency_ns: 70,
            }, // slice 1
            Sample {
                done_ns: 30,
                latency_ns: 90,
            }, // at the end bound: outside
        ];
        let slices = slice_samples(&samples, &[10, 20, 30]);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].completed, 2);
        assert_eq!(slices[0].latencies, vec![10, 30]);
        assert_eq!(slices[1].completed, 1);
        assert!((slices[0].secs - 1e-8).abs() < 1e-15);
        assert_eq!(
            median_over(&slices, |s| Some(s.completed as f64)),
            Some(1.5)
        );
        assert_eq!(median_over(&slices, |_| None::<f64>), None);
    }
}
