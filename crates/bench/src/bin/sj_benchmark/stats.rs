//! The statistics behind the reported metrics.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`p` in (0, 100]): the smallest
/// sample with at least `p`% of the samples at or below it. At n = 1000
/// and p = 99 that is the 990th smallest, so exactly 10 samples lie above
/// it when they are distinct. 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even-sized sample
/// (0 for an empty one). Used for per-segment values such as set-up time,
/// where there are only a handful of samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, defined as 0 when there is nothing to divide by (a layer
/// that did no work in this run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Self time of a span: its duration minus the part of it that its
/// children cover. Children may overlap (tile builds run concurrently on
/// the mini-join pool), so the covered part is the length of the union of
/// their intervals, not the sum of their durations. Children are clipped
/// to the parent's interval.
pub fn self_time(parent: (Instant, Instant), children: &[(Instant, Instant)]) -> Duration {
    let (p0, p1) = parent;
    let mut spans: Vec<(Instant, Instant)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(p0, p1), e.clamp(p0, p1)))
        .filter(|(s, e)| s < e)
        .collect();
    spans.sort();
    let mut covered = Duration::ZERO;
    let mut reach = p0;
    for (s, e) in spans {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (p1 - p0).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_leaves_exactly_ten_of_a_thousand_samples_above() {
        // Shuffled distinct samples 1..=1000.
        let samples: Vec<f64> = (0..1000u64)
            .map(|i| ((i * 7919) % 1000 + 1) as f64)
            .collect();
        let p99 = percentile(&samples, 99.0);
        assert_eq!(samples.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(p99, 990.0);
        assert_eq!(percentile(&samples, 50.0), 500.0);
        assert_eq!(percentile(&samples, 100.0), 1000.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[0.9, 0.7, 0.8]), 0.8);
        assert_eq!(median(&[0.4, 0.1, 0.3, 0.2]), 0.25);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        // Five set-up times with one slow outlier: the median ignores it.
        assert_eq!(median(&[0.21, 0.20, 3.5, 0.22, 0.19]), 0.21);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let parent = (at(0), at(100));
        // Two tile builds overlapping on [20, 30]: union 40 ms, sum 50 ms.
        let children = [(at(10), at(30)), (at(20), at(50))];
        assert_eq!(self_time(parent, &children), Duration::from_millis(60));
        // Nested and disjoint children, in any order.
        let children = [(at(70), at(80)), (at(0), at(40)), (at(5), at(15))];
        assert_eq!(self_time(parent, &children), Duration::from_millis(50));
        // Children reaching outside the parent are clipped to it.
        let children = [(at(90), at(150))];
        assert_eq!(self_time(parent, &children), Duration::from_millis(90));
        assert_eq!(self_time(parent, &[]), Duration::from_millis(100));
    }
}
