//! Order statistics and the regression rule the ledger is judged by.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the driver that accepts or
//! rejects a later PR computes over its own runs.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them. A single value is its own quartiles; an empty slice gives `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |quarter: usize| {
        // Position `quarter * (n + 1) / 4` in 1-based ranks, interpolated
        // linearly and clamped to the sample.
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos as f64) / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread a bound has to stay clear of.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The share by which `candidate` is *worse* than `base` (negative when it is
/// better), in the direction given by `better`.
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// Whether `candidate` is no worse than `base` by more than `bound` (a share
/// of `base`).
pub fn within_bound(base: f64, candidate: f64, better: Better, bound: f64) -> bool {
    worsening(base, candidate, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([7, 1, 4, 9, 2], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0, 2.0]), (1.5, 8.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn bound_check_respects_direction() {
        // 8% slower is inside a 10% bound, 12% is not.
        assert!(within_bound(10.0, 10.8, Better::Lower, 0.10));
        assert!(!within_bound(10.0, 11.2, Better::Lower, 0.10));
        // Throughput: lower is worse.
        assert!(within_bound(100.0, 95.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 85.0, Better::Higher, 0.10));
        // Improvements always pass, whatever their size.
        assert!(within_bound(10.0, 1.0, Better::Lower, 0.0));
        assert!(within_bound(10.0, 100.0, Better::Higher, 0.0));
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
    }
}
