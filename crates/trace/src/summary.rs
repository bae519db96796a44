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
        let mut sorted: Vec<Duration> = samples.to_vec();
        // Equal durations are indistinguishable, so the unstable sort
        // gives the same order without the stable sort's scratch copy.
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        Summary {
            count: sorted.len(),
            total,
            min: sorted[0],
            max: *sorted.last().unwrap(),
            mean: total / sorted.len() as u32,
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
        }
    }
}

/// Nearest-rank percentile of an already-sorted, non-empty slice.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
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

    #[test]
    fn order_does_not_matter() {
        let a = Summary::of(&[ms(3), ms(1), ms(2)]);
        let b = Summary::of(&[ms(1), ms(2), ms(3)]);
        assert_eq!(a, b);
        assert_eq!(a.mean, ms(2));
    }
}
