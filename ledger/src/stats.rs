//! Order statistics for the ledger: nearest-rank percentiles, the
//! highest tail percentile a sample supports, and median / quartiles /
//! MAD. Everything works on `f64` samples and never panics on empty
//! input — an empty sample yields `None`.

/// The tail percentiles the ledger is willing to report, ascending.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Sorts a copy of `samples` ascending (NaNs, which no ledger source
/// produces, sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// 1-based nearest-rank of percentile `p` in a sample of `n`. The small
/// tolerance keeps `99.9 % of 10 000` at rank 9990, not 9991, despite
/// the product's rounding error.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n`; `None` below twenty samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|&p| beyond(n, p) >= 10)
}

/// Median: the mean of the two middle values for an even count.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method — the numbers
/// Python's `statistics.quantiles(values, n=4)` returns, so the spreads
/// printed here are the ones the acceptance driver computes. A single
/// sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    match n {
        0 => return None,
        1 => return Some((sorted[0], sorted[0])),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median absolute deviation from the median.
pub fn mad(sorted: &[f64]) -> Option<f64> {
    let m = median(sorted)?;
    let dev: Vec<f64> = sorted.iter().map(|v| (v - m).abs()).collect();
    median(&self::sorted(&dev))
}

/// What the ledger prints for one timed quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation.
    pub mad: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let s = sorted(samples);
        let (q1, q3) = quartiles(&s)?;
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1,
            median: median(&s)?,
            q3,
            mad: mad(&s)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_yields_none_everywhere() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(mad(&[]), None);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(beyond(0, 95.0), 0);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let s = [7.5];
        assert_eq!(percentile(&s, 1.0), Some(7.5));
        assert_eq!(percentile(&s, 100.0), Some(7.5));
        assert_eq!(median(&s), Some(7.5));
        assert_eq!(quartiles(&s), Some((7.5, 7.5)));
        assert_eq!(mad(&s), Some(0.0));
        assert_eq!(supported_tail(1), None);
    }

    #[test]
    fn nearest_rank_on_a_hand_computed_vector() {
        // Ranks: p50 -> ceil(2.5)=3, p90 -> ceil(4.5)=5, p20 -> 1, p21 -> 2.
        let s = sorted(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!(percentile(&s, 50.0), Some(30.0));
        assert_eq!(percentile(&s, 90.0), Some(50.0));
        assert_eq!(percentile(&s, 20.0), Some(10.0));
        assert_eq!(percentile(&s, 21.0), Some(20.0));
        assert_eq!(percentile(&s, 100.0), Some(50.0));
    }

    #[test]
    fn ties_do_not_move_ranks() {
        let s = sorted(&[2.0, 1.0, 2.0, 2.0, 9.0, 2.0]);
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(median(&s), Some(2.0));
        assert_eq!(quartiles(&s), Some((1.75, 3.75)));
        assert_eq!(mad(&s), Some(0.0));
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
    }

    #[test]
    fn mad_on_a_hand_computed_vector() {
        // median 3; deviations 2,1,0,1,6 -> sorted 0,1,1,2,6 -> 1.
        assert_eq!(mad(&sorted(&[1.0, 2.0, 3.0, 4.0, 9.0])), Some(1.0));
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        // n=19: p50 rank 10, 9 beyond. n=20: rank 10, 10 beyond.
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        // n=40: p75 rank 30, 10 beyond; p90 rank 36, 4 beyond.
        assert_eq!(supported_tail(40), Some(75.0));
        // n=200: p95 rank 190, 10 beyond; p99 rank 198, 2 beyond.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_collects_the_lot() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        assert_eq!(s.mad, 1.0);
    }
}
