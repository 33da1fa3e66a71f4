//! Order statistics and accounting rules shared by every workload: the
//! median, the tail percentile with at least ten samples beyond it,
//! goodput against a latency limit, and span self-time.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The `p`-th percentile (0–100) by nearest rank.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    sorted
}

/// A tail latency together with the percentile it sits at and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile rank: the share of samples at or below it, in %.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile that still has at least `beyond` samples above
/// it: in sorted order, the sample with exactly `beyond` after it. `None`
/// when there are too few samples for any such percentile.
#[must_use]
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let sorted = sorted(values);
    Some(Tail {
        value: sorted[n - beyond - 1],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    })
}

/// Requests per second that completed correctly within `limit`: the
/// latencies of correct responses only (a failed request misses every
/// limit), over a window of `window_s` seconds.
#[must_use]
pub fn goodput(correct_latencies: &[f64], limit: f64, window_s: f64) -> f64 {
    correct_latencies.iter().filter(|&&l| l <= limit).count() as f64 / window_s
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Intervals are `(start, end)` pairs; children may
/// overlap each other and stick out of the parent, and only the covered
/// part inside the parent is subtracted, once.
#[must_use]
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

        // Order of the input does not matter; 25 samples put the tail at
        // the 15th smallest (p60).
        let mut shuffled: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        shuffled.swap(3, 17);
        let t = tail(&shuffled, TAIL_BEYOND).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (15.0, 60.0, 25));
    }

    #[test]
    fn tail_needs_more_samples_than_the_margin() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten, TAIL_BEYOND), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven, TAIL_BEYOND).unwrap().value, 0.0);
    }

    #[test]
    fn goodput_counts_only_latencies_within_the_limit() {
        // Four correct responses in a 2 s window, one over the 100 ms
        // limit; exactly-at-limit counts as met.
        let latencies = [20.0, 100.0, 99.9, 150.0];
        assert_eq!(goodput(&latencies, 100.0, 2.0), 1.5);
        assert_eq!(goodput(&latencies, 10.0, 2.0), 0.0);
        assert_eq!(goodput(&[], 100.0, 2.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_covered_child_intervals() {
        // request [0, 100): queue [0, 30), exec [60, 90), and a nested
        // kernel [70, 80) inside exec that must not be subtracted twice.
        assert_eq!(self_time((0, 100), &[(0, 30), (60, 90), (70, 80)]), 40);
        // Overlapping siblings and a child sticking out of the parent.
        assert_eq!(self_time((10, 50), &[(0, 20), (15, 30), (45, 70)]), 15);
        // No children: all self. Fully covered: none.
        assert_eq!(self_time((5, 9), &[]), 4);
        assert_eq!(self_time((5, 9), &[(0, 100)]), 0);
        // A child outside the parent changes nothing.
        assert_eq!(self_time((5, 9), &[(9, 12)]), 4);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), 19.0);
        assert_eq!(percentile(&values, 100.0), 20.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
    }
}
