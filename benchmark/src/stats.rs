//! Order statistics and the two-point step estimator.
//!
//! Every timing the benchmark reports is a median or a fixed percentile of
//! the samples taken in one run; the quartile rule is the one Python's
//! `statistics.quantiles(values, n=4)` uses, so a spread computed here and
//! one computed by the driver agree.

/// Percentile `p` in `(0, 1)` of `samples` by the exclusive rule
/// (`statistics.quantiles`, method "exclusive"): position `p·(n+1)` on the
/// 1-based sorted samples, linearly interpolated, clamped to the ends.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median of `a[i] / b[i]`: a ratio between two things measured in
/// alternation, taken pair by pair so that each pair sees the host in one
/// mood.
pub fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(a, b)| a / b).collect::<Vec<_>>())
}

/// `(q1, median, q3)` of `samples`.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    (
        percentile(samples, 0.25),
        percentile(samples, 0.5),
        percentile(samples, 0.75),
    )
}

/// Distance between the quartiles as a share of the median: the spread the
/// driver compares with a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The host's pace around each operation.
///
/// `probes` are the pacing probe's times in the order taken and
/// `before[i]` indexes the one taken last before operation `i`. The pace
/// around an operation is the median of the two probes before it and the
/// two after, as many of them as exist.
pub fn local_pace(before: &[usize], probes: &[f64]) -> Vec<f64> {
    before
        .iter()
        .map(|&b| median(&probes[b.saturating_sub(1)..(b + 3).min(probes.len())]))
        .collect()
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; below 40 samples only the median qualifies.
pub fn highest_percentile(n: usize) -> f64 {
    [99, 95, 90, 75]
        .into_iter()
        .find(|pct| n * (100 - pct) >= 1000)
        .map_or(0.5, |pct| pct as f64 / 100.0)
}

/// What alternating short and long calls of a function with no per-step
/// hook says about it.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPoint {
    /// Seconds per step: the slope between the two medians.
    pub step_s: f64,
    /// Seconds per call that do not scale with the step count.
    pub setup_s: f64,
    /// One step estimate per long call: `(t_long − setup) / k_long`.
    pub step_samples_s: Vec<f64>,
}

/// Two-point estimate from calls of `k_short` and `k_long` steps:
/// `step = (median long − median short) / (k_long − k_short)` and
/// `setup = median short − k_short · step`.
pub fn two_point(short_s: &[f64], long_s: &[f64], k_short: u32, k_long: u32) -> TwoPoint {
    assert!(k_long > k_short, "the long call must run more steps");
    let step_s = (median(long_s) - median(short_s)) / f64::from(k_long - k_short);
    let setup_s = median(short_s) - f64::from(k_short) * step_s;
    let step_samples_s = long_s
        .iter()
        .map(|t| (t - setup_s) / f64::from(k_long))
        .collect();
    TwoPoint {
        step_s,
        setup_s,
        step_samples_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn a_paired_ratio_ignores_drift_both_sides_share() {
        // Both sides slow down together by 2× half-way through.
        let a = [1.1, 1.1, 2.2, 2.2, 2.2];
        let b = [1.0, 1.0, 2.0, 2.0, 2.0];
        assert!((median_ratio(&a, &b) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn local_pace_is_the_median_of_the_probes_around_an_operation() {
        // The host halves its speed before operation 2; probes taken from
        // then on take twice as long. One stray probe does not count.
        let probes = [1.0, 1.0, 1.0, 1.0, 2.0, 9.0, 2.0, 2.0, 2.0];
        let before = [1, 2, 5, 6];
        assert_eq!(local_pace(&before, &probes), [1.0, 1.0, 2.0, 2.0]);
        // At either end there are fewer probes to take the median of.
        assert_eq!(local_pace(&[0], &[3.0, 5.0]), [4.0]);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(39), 0.5);
        assert_eq!(highest_percentile(40), 0.75);
        assert_eq!(highest_percentile(99), 0.75);
        assert_eq!(highest_percentile(100), 0.90);
        assert_eq!(highest_percentile(200), 0.95);
        assert_eq!(highest_percentile(1000), 0.99);
    }

    #[test]
    fn two_point_recovers_step_and_setup_from_synthetic_timings() {
        // 70 ms steps behind a 30 ms set-up, with symmetric noise that the
        // medians ignore.
        let noise = [-0.004, 0.0, 0.004, -0.001, 0.001];
        let short: Vec<f64> = noise.iter().map(|e| 0.030 + 0.070 + e).collect();
        let long: Vec<f64> = noise.iter().map(|e| 0.030 + 5.0 * 0.070 + e).collect();
        let est = two_point(&short, &long, 1, 5);
        assert!((est.step_s - 0.070).abs() < 1e-12);
        assert!((est.setup_s - 0.030).abs() < 1e-12);
        assert_eq!(est.step_samples_s.len(), 5);
        assert!((median(&est.step_samples_s) - 0.070).abs() < 1e-12);
    }
}
