//! Order statistics, geometric means and the regression-bound rule.
//!
//! `quartiles` reproduces Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method) exactly, so the spreads printed by
//! `perf_ledger --compare` are the ones an outside check computes from
//! the same values.

/// Median of a sample (mean of the two middle values for even sizes).
/// Returns NaN for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks. Returns NaN for an empty sample.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs at least
/// two values; returns NaNs otherwise.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return [f64::NAN; 3];
    }
    let n = 4i64;
    let m = ld as i64 + 1;
    std::array::from_fn(|k| {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // May be negative for tiny samples; Python extrapolates then too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    })
}

/// Distance between the first and third quartile as a share of the
/// median.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Geometric mean of positive values. Returns NaN when any value is not
/// positive or the sample is empty, so a failed instance cannot hide in
/// the mean.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; NaN for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, quality).
    Higher,
}

impl Better {
    /// Parse the `better` field of a metric spec.
    #[must_use]
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when it is better).
#[must_use]
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// The regression rule: the candidate median may be worse than the
/// base median by at most `bound` (a share of the base median).
#[must_use]
pub fn within_bound(base_median: f64, candidate_median: f64, better: Better, bound: f64) -> bool {
    worsening(base_median, candidate_median, better) <= bound
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert!(quartiles(&[1.0])[0].is_nan());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 6]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn bound_rule_respects_direction() {
        assert!(within_bound(100.0, 110.0, Better::Lower, 0.1));
        assert!(!within_bound(100.0, 110.1, Better::Lower, 0.1));
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.0));
        assert!(within_bound(100.0, 90.0, Better::Higher, 0.1));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.1));
        assert!((worsening(2.0, 1.0, Better::Higher) - 0.5).abs() < 1e-12);
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("up"), None);
    }
}
