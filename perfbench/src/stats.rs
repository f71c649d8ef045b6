//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule: the `q`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `⌈q·n/100⌉` (rank 1 for
//! `q = 0`). The reported tail of a sample set is the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples above it, so a tail
//! figure never rests on fewer than ten observations.

/// Samples a tail percentile must have strictly beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile, `0 ≤ q ≤ 100`. `None` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Median by the nearest-rank rule (the lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(f64::NAN)
}

/// The tail of `samples`: `(percentile, value)` of the sample at rank
/// `n − 10`, the highest rank with ten samples beyond it. `None` when
/// there are fewer than eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let v = sorted(samples);
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// The tail value, or the maximum when the set is too small to have one.
pub fn tail_or_max(samples: &[f64]) -> f64 {
    match tail(samples) {
        Some((_, v)) => v,
        None => samples.iter().copied().fold(f64::NAN, f64::max),
    }
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest `⌊n/4⌋`. Unlike the median, it moves smoothly
/// with the share of samples in a slow spell instead of jumping from one
/// mode to the other; unlike the mean, a few stalls do not move it.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Distance between the first and third quartile (nearest rank).
pub fn iqr(samples: &[f64]) -> f64 {
    match (percentile(samples, 25.0), percentile(samples, 75.0)) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 10.0), Some(1.0));
        assert_eq!(percentile(&s, 11.0), Some(2.0));
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(median(&rev), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            tail(&ten),
            None,
            "ten samples leave nothing beyond any rank"
        );
        assert_eq!(tail_or_max(&ten), 10.0);

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, v) = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);

        // 1000 samples: p99 has exactly ten beyond it.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, v) = tail(&many).expect("tail");
        assert_eq!((pct, v), (99.0, 990.0));
        assert_eq!(many.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn interquartile_mean_drops_both_quarters() {
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0, 2.0]), 2.0);
        // Eight samples: the lowest two and highest two go.
        let s = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&s), 3.5);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn iqr_of_uniform_ranks() {
        let s: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(iqr(&s), 6.0 - 2.0);
        assert!(iqr(&[]).is_nan());
    }
}
