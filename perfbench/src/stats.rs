//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the raw
//! per-request samples — never read back from the service's bucketed
//! `LatencyHistogram`, whose 1–2–5 buckets report upper bounds.

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `q` of all samples are `<=` it (`q` in `(0, 1]`).
///
/// # Panics
/// On an empty slice or a `q` outside `(0, 1]`.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, p90, p99 and the counts needed to judge them, over one sample
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank 50th percentile.
    pub p50: u64,
    /// Nearest-rank 90th percentile.
    pub p90: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Samples strictly greater than `p99`.
    pub beyond_p99: usize,
    /// Largest sample.
    pub max: u64,
}

impl Summary {
    /// Summarise `samples` (sorted in place).
    ///
    /// # Panics
    /// On an empty sample set.
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        let p99 = nearest_rank(samples, 0.99);
        Summary {
            n: samples.len(),
            p50: nearest_rank(samples, 0.50),
            p90: nearest_rank(samples, 0.90),
            p99,
            beyond_p99: samples.len() - samples.partition_point(|&x| x <= p99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Median of a non-empty list of measurements (mean of the middle pair for
/// an even count).
///
/// # Panics
/// On an empty list.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a non-empty list of measurements after dropping its lowest and
/// highest tenth (at least one value at each end once there are three).
/// One stalled or lucky sub-day cannot move it, and over the benchmark's
/// sub-days it varied about half as much from seed to seed as the median.
///
/// # Panics
/// On an empty list.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = if v.len() >= 3 {
        (v.len() / 10).max(1)
    } else {
        0
    };
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_samples() {
        let s = [10, 20, 30, 40, 50];
        // ceil(0.5·5) = 3rd sample; ceil(0.99·5) = 5th; ceil(0.2·5) = 1st.
        assert_eq!(nearest_rank(&s, 0.5), 30);
        assert_eq!(nearest_rank(&s, 0.99), 50);
        assert_eq!(nearest_rank(&s, 0.2), 10);
        assert_eq!(nearest_rank(&s, 0.21), 20);
        assert_eq!(nearest_rank(&s, 1.0), 50);
    }

    #[test]
    fn summary_of_1_to_1000() {
        // 1..=1000 shuffled: p50 is the 500th sample, p90 the 900th, p99
        // the 990th, and exactly ten samples (991..=1000) lie beyond p99.
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        s.swap(3, 700);
        let sum = Summary::of(&mut s);
        assert_eq!(sum.n, 1000);
        assert_eq!(sum.p50, 500);
        assert_eq!(sum.p90, 900);
        assert_eq!(sum.p99, 990);
        assert_eq!(sum.beyond_p99, 10);
        assert_eq!(sum.max, 1000);
    }

    #[test]
    fn ties_at_p99_do_not_count_as_beyond() {
        let mut s = vec![1u64; 95];
        s.extend([7, 7, 7, 7, 9]);
        let sum = Summary::of(&mut s);
        assert_eq!(sum.p50, 1);
        assert_eq!(sum.p99, 7);
        assert_eq!(sum.beyond_p99, 1);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        // Twenty values: the lowest two and highest two go; mean of 3..=18.
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(trimmed_mean(&v), 10.5);
        // Three to nineteen values: one at each end.
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, -50.0]), 2.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0]), 2.0);
        // Fewer than three: plain mean.
        assert_eq!(trimmed_mean(&[1.0, 4.0]), 2.5);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.5]), 5.5);
    }
}
