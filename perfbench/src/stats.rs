//! Order statistics used by every workload.

/// Median of `xs` (mean of the two middle values for even counts); `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `xs` (the "inclusive"
/// definition: `q = 0` is the minimum, `q = 1` the maximum); `NaN` for an
/// empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of `candidates` (percentiles in `(0, 100)`) that leaves at
/// least ten samples of `n` strictly above it: percentile `p` qualifies when
/// `n · (1 − p/100) ≥ 10`. `None` when no candidate qualifies.
pub fn reportable_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|p| *p > 0.0 && *p < 100.0 && n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .max_by(f64::total_cmp)
}

/// The tail statistic behind every `*_p90_*` metric: the 90th percentile
/// when at least ten samples lie beyond it (`n ≥ 100`). Below that no tail
/// percentile is measurable, and the median is reported instead.
pub fn p90_or_median(xs: &[f64]) -> f64 {
    match reportable_percentile(xs.len(), &[90.0]) {
        Some(p) => quantile(xs, p / 100.0),
        None => median(xs),
    }
}

/// Geometric mean of positive values; `NaN` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // p90 needs 100 samples, p99 needs 1000.
        assert_eq!(reportable_percentile(99, &[50.0, 90.0]), Some(50.0));
        assert_eq!(reportable_percentile(100, &[50.0, 90.0]), Some(90.0));
        assert_eq!(reportable_percentile(999, &[50.0, 90.0, 99.0]), Some(90.0));
        assert_eq!(reportable_percentile(1000, &[50.0, 90.0, 99.0]), Some(99.0));
        // p50 needs 20.
        assert_eq!(reportable_percentile(19, &[50.0]), None);
        assert_eq!(reportable_percentile(20, &[50.0]), Some(50.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_below_one_hundred_samples() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90_or_median(&few), 50.0);
        let many: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(p90_or_median(&many), quantile(&many, 0.9));
        assert_eq!(p90_or_median(&many), 91.0);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
