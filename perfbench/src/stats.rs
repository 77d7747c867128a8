//! Latency summaries: the median plus the highest standard percentile that
//! still has at least [`TAIL_BEYOND`] samples above it, with the count.

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The fewest samples for which [`summarize`] reports a tail.
pub const MIN_SAMPLES: usize = 40;

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A summarized sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Median (nearest rank).
    pub p50: f64,
    /// Value at [`tail_pct`](Self::tail_pct) (nearest rank).
    pub tail: f64,
    /// The percentile [`tail`](Self::tail) was read at.
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Zero-based nearest-rank index of percentile `pct` among `n` sorted
/// samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest candidate percentile with at least [`TAIL_BEYOND`] of `n`
/// samples strictly above its rank, or `None` when even the 75th has too
/// few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_BEYOND)
}

/// Summarizes `samples` (sorted in place). `None` when there are too few
/// samples for any tail percentile.
pub fn summarize(samples: &mut [f64]) -> Option<Dist> {
    let n = samples.len();
    let tail_pct = tail_percentile(n)?;
    samples.sort_by(f64::total_cmp);
    Some(Dist { p50: samples[rank(50.0, n)], tail: samples[rank(tail_pct, n)], tail_pct, n })
}

/// Median of a non-empty sample set (mean of the middle pair for even
/// counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_011), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(MIN_SAMPLES), Some(75.0));
        assert_eq!(tail_percentile(MIN_SAMPLES - 1), None);
        assert_eq!(tail_percentile(0), None);
        for n in MIN_SAMPLES..5000 {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - 1 - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reads_nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let d = summarize(&mut s).expect("summary");
        assert_eq!(d, Dist { p50: 500.0, tail: 990.0, tail_pct: 99.0, n: 1000 });
        assert!(summarize(&mut [1.0; 10]).is_none());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
