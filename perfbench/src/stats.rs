//! Order statistics for the benchmark's reports.

/// Samples a reported percentile must have strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples:
/// `ceil(p·n/100)`, at least 1. Integer arithmetic, so `p = 99, n = 1000`
/// is exactly rank 990.
fn nearest_rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Whether the `p`-th percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples above its nearest rank.
pub fn supported(n: usize, p: u32) -> bool {
    n >= nearest_rank(n, p) + MIN_BEYOND
}

/// Nearest-rank percentile of `samples` (any order): the smallest sample
/// with at least `p`% of the samples at or below it. `None` when the
/// sample is too small to support it (see [`supported`]).
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if !supported(samples.len(), p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Median of a non-empty sample (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(50.0));
        assert_eq!(percentile(&xs, 90), Some(90.0));
        // p95 of 100 samples is rank 95: only 5 beyond it, not reportable.
        assert_eq!(percentile(&xs, 95), None);
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), Some(990.0));
        assert_eq!(percentile(&xs, 1), Some(10.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p50 of 20 samples is rank 10 with exactly 10 beyond.
        assert!(supported(20, 50));
        assert!(!supported(19, 50));
        // p99 needs 1000 samples, p95 200, p90 100.
        assert!(supported(1000, 99) && !supported(999, 99));
        assert!(supported(200, 95) && !supported(199, 95));
        assert!(supported(100, 90) && !supported(99, 90));
        assert!(!supported(0, 50));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
