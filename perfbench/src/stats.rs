//! The one percentile helper every timing in the benchmark goes through,
//! and the open-loop due-time accounting behind the request latencies.

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile before it is
/// reported: fewer than this and the "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// A timing distribution summarized for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples summarized.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The reported tail percentile (see [`tail`]).
    pub pct: f64,
    /// The value at `pct`.
    pub value: f64,
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // ceil(p/100 * n) in integers (p to a thousandth of a percent), so
    // 99.9% of 10 000 is rank 9 990 exactly, not 9 991.
    let milli = (p.clamp(0.0, 100.0) * 1000.0).round() as u128;
    let r = (milli * n as u128).div_ceil(100_000);
    usize::try_from(r).expect("rank <= n").clamp(1, n)
}

/// Samples strictly beyond the nearest rank of `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Summarizes `samples` (sorted in place): the median, and the highest
/// percentile on the fixed ladder that is at most `want` and has at least
/// [`MIN_BEYOND`] samples beyond it. With too few samples for even the
/// median to qualify, the median is reported as the tail.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn tail(samples: &mut [f64], want: f64) -> Tail {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| p <= want && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        n,
        p50: percentile(samples, 50.0),
        pct,
        value: percentile(samples, pct),
    }
}

/// Median of `values` (sorted in place; mean of the middle pair when even).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One request of an open-loop schedule, in nanoseconds since the
/// schedule's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said the request should go out.
    pub due: u64,
    /// When it actually went out.
    pub sent: u64,
    /// When its response was complete.
    pub done: u64,
}

impl Timing {
    /// Latency as the user of the schedule sees it: from the due time, so
    /// a stall also charges every request queued behind it.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }
}

/// Due time of request `i` at `rate` per second, in nanoseconds.
#[must_use]
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// How late the generator itself sent each request: the time past the
/// moment it was free to send — the later of the due time and the
/// previous response (one decision is in flight at a time, so a slow
/// response delays the next send without the generator being at fault).
#[must_use]
pub fn generator_lateness(timings: &[Timing]) -> Vec<u64> {
    let mut free_after_prev = 0;
    timings
        .iter()
        .map(|t| {
            let free = t.due.max(free_after_prev);
            free_after_prev = t.done;
            t.sent.saturating_sub(free)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly ten beyond, so p99 holds.
        let mut s: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&mut s, 99.0);
        assert_eq!((t.n, t.pct, t.value), (1000, 99.0, 989.0));
        // 999 samples: rank 990 leaves nine beyond; fall back to p95.
        let mut s: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&mut s, 99.0).pct, 95.0);
        // 100 samples: p90 leaves ten beyond, p95 only five.
        let mut s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&mut s, 99.0).pct, 90.0);
        // Ten thousand support p99.9, but the caller asked for p99.
        let mut s: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&mut s, 99.0).pct, 99.0);
        assert_eq!(tail(&mut s, 99.9).pct, 99.9);
        // Too few for anything: the median stands in.
        let mut s = vec![3.0, 1.0, 2.0];
        let t = tail(&mut s, 99.0);
        assert_eq!((t.pct, t.value, t.p50), (50.0, 2.0, 2.0));
    }

    #[test]
    fn tail_sorts_unsorted_input() {
        let mut s: Vec<f64> = (0..40).rev().map(f64::from).collect();
        let t = tail(&mut s, 99.0);
        assert_eq!(t.pct, 75.0);
        assert_eq!(t.value, 29.0);
        assert_eq!(t.p50, 19.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_counts_from_due_time() {
        // A stall on request 0 delays request 1's send; its latency still
        // runs from when it was due.
        let t = [
            Timing {
                due: 0,
                sent: 0,
                done: 900,
            },
            Timing {
                due: 250,
                sent: 900,
                done: 960,
            },
        ];
        assert_eq!(t[0].latency(), 900);
        assert_eq!(t[1].latency(), 710);
        // The generator was not late: it sent as soon as it was free.
        assert_eq!(generator_lateness(&t), vec![0, 0]);
    }

    #[test]
    fn generator_lateness_is_measured_from_when_it_was_free() {
        let t = [
            Timing {
                due: 0,
                sent: 30,
                done: 100,
            },
            Timing {
                due: 250,
                sent: 400,
                done: 450,
            },
            Timing {
                due: 300,
                sent: 470,
                done: 500,
            },
        ];
        // Request 2 was free at 450 (request 1's response), sent at 470.
        assert_eq!(generator_lateness(&t), vec![30, 150, 20]);
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 4000.0), 0);
        assert_eq!(due_ns(1, 4000.0), 250_000);
        assert_eq!(due_ns(4000, 4000.0), 1_000_000_000);
    }
}
