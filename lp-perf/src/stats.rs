//! Order statistics for the benchmark's own timings.

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples;
/// 0 for an empty set, so a bypassed layer reports 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile worth reporting for `n` samples: the largest of
/// a fixed ladder that still has at least ten samples beyond it. Below 40
/// samples even p75 has fewer than ten beyond, and the median is all a
/// run can state.
pub fn tail_percentile(n: usize) -> f64 {
    // Per mille, so that "ten beyond p90 of 100" is exact.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method) — the spread the benchmark driver computes.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    let med = median(samples);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / med.abs()
}

/// How well an estimate agrees with the truth: the smaller of the two as
/// a percentage of the larger. 100 when exact, the same for an estimate
/// twice too large and one half too small, and never negative however far
/// off the estimate is (an absolute error of 120 % would be).
pub fn agreement_pct(estimate: f64, truth: f64) -> f64 {
    if estimate <= 0.0 || truth <= 0.0 {
        return 0.0;
    }
    100.0 * estimate.min(truth) / estimate.max(truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
    }

    #[test]
    fn agreement_is_symmetric_and_bounded() {
        assert_eq!(agreement_pct(50.0, 50.0), 100.0);
        assert_eq!(agreement_pct(100.0, 50.0), 50.0);
        assert_eq!(agreement_pct(25.0, 50.0), 50.0);
        assert_eq!(agreement_pct(0.0, 50.0), 0.0);
        assert!(agreement_pct(1e9, 1.0) > 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 10, 10, 11], n=4) == [10.0, 10.0, 10.75]
        assert!((quartile_spread(&[10.0, 11.0, 10.0, 10.0]) - 0.075).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
