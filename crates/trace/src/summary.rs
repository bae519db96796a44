//! Aggregate statistics over repeated measurements.

use std::time::Duration;

/// Count/total/percentile statistics of a set of durations — the numbers a
/// bench binary prints per phase across repeated inferences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples.
    pub total: Duration,
    /// Smallest sample.
    pub min: Duration,
    /// Largest sample.
    pub max: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (50th percentile, nearest-rank).
    pub p50: Duration,
    /// 90th percentile (nearest-rank).
    pub p90: Duration,
    /// 95th percentile (nearest-rank).
    pub p95: Duration,
    /// 99th percentile (nearest-rank).
    pub p99: Duration,
}

impl Summary {
    /// Computes statistics over `samples`. An empty set yields all-zero
    /// statistics.
    pub fn of(samples: &[Duration]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                total: Duration::ZERO,
                min: Duration::ZERO,
                max: Duration::ZERO,
                mean: Duration::ZERO,
                p50: Duration::ZERO,
                p90: Duration::ZERO,
                p95: Duration::ZERO,
                p99: Duration::ZERO,
            };
        }
        let n = samples.len();
        let total: Duration = samples.iter().sum();
        // Each order statistic by selection, highest rank first: after
        // rank `r` is selected, `v[..r]` holds the `r` smallest samples,
        // so every lower rank is selected within that prefix. Equal
        // durations are indistinguishable, so the values are the ones a
        // full sort would put at these ranks.
        let mut v: Vec<Duration> = samples.to_vec();
        let mut end = n;
        let mut at_rank = |rank: usize| {
            if rank < end {
                v[..end].select_nth_unstable(rank);
                end = rank;
            }
            v[rank]
        };
        let max = at_rank(n - 1);
        let p99 = at_rank(rank(n, 99.0));
        let p95 = at_rank(rank(n, 95.0));
        let p90 = at_rank(rank(n, 90.0));
        let p50 = at_rank(rank(n, 50.0));
        let min = at_rank(0);
        Summary {
            count: n,
            total,
            min,
            max,
            mean: total / n as u32,
            p50,
            p90,
            p95,
            p99,
        }
    }
}

/// Zero-based index of the nearest-rank `p`th percentile of `n > 0`
/// sorted samples.
fn rank(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn empty_is_all_zero() {
        // The uncontended fleet run hands an empty `waits` vector here:
        // every field, *including the high percentiles*, must report zero
        // rather than indexing past the end of the (empty) sorted sample.
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.total, Duration::ZERO);
        assert_eq!(s.min, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
        assert_eq!(s.mean, Duration::ZERO);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.p90, Duration::ZERO);
        assert_eq!(s.p95, Duration::ZERO);
        assert_eq!(s.p99, Duration::ZERO);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[ms(7)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.min, ms(7));
        assert_eq!(s.max, ms(7));
        assert_eq!(s.mean, ms(7));
        assert_eq!(s.p50, ms(7));
        assert_eq!(s.p95, ms(7));
        assert_eq!(s.p99, ms(7));
    }

    #[test]
    fn percentiles_on_1_to_100() {
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.p50, ms(50));
        assert_eq!(s.p90, ms(90));
        assert_eq!(s.p95, ms(95));
        assert_eq!(s.p99, ms(99));
        assert_eq!(s.min, ms(1));
        assert_eq!(s.max, ms(100));
        assert_eq!(s.total, ms(5050));
    }

    /// The reference: every field read off a sorted copy.
    fn by_sorting(samples: &[Duration]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let percentile = |p: f64| {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let total: Duration = sorted.iter().sum();
        Summary {
            count: sorted.len(),
            total,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: total / sorted.len() as u32,
            p50: percentile(50.0),
            p90: percentile(90.0),
            p95: percentile(95.0),
            p99: percentile(99.0),
        }
    }

    /// Every size from 1 to 300, drawn from few enough distinct values
    /// that duplicates straddle the percentile ranks, matches the sort.
    #[test]
    fn selection_matches_a_full_sort() {
        let mut state = 0x5u64;
        for n in 1..=300u64 {
            let distinct = 1 + n % 17;
            let samples: Vec<Duration> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ms((state >> 33) % distinct)
                })
                .collect();
            assert_eq!(Summary::of(&samples), by_sorting(&samples), "n = {n}");
        }
    }

    #[test]
    fn order_does_not_matter() {
        let a = Summary::of(&[ms(3), ms(1), ms(2)]);
        let b = Summary::of(&[ms(1), ms(2), ms(3)]);
        assert_eq!(a, b);
        assert_eq!(a.mean, ms(2));
    }
}
