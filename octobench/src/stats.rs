//! Percentiles over raw samples. Every timing the benchmark reports is a
//! median (or a stated percentile) of the samples one run collected.

/// The `p`-th percentile (0–100) by nearest rank; 0.0 for no samples, so a
/// layer that never ran reports 0 rather than NaN.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(samples: &mut [f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    (samples[(n - 1) / 2] + samples[n / 2]) / 2.0
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0.0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 51.0);
        assert_eq!(percentile(&mut v, 95.0), 96.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn the_median_is_the_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
