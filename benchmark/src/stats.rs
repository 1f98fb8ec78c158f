//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the function the acceptance
//! rule for run-to-run spread is stated in.

use crate::json::Value;

/// Ascending copy of `xs` (total order, so NaN cannot panic the sort).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count. NaN when
/// `xs` is empty, so a metric that never got a sample fails the
/// "present and finite" check instead of posing as zero.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(xs, n=4)` returns them. A single
/// sample is its own quartiles; an empty slice gives NaNs.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    match len {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // `delta` may exceed 4 or go negative after clamping, exactly as in
        // CPython, which extrapolates from the outermost pair.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// that is compared with a metric's bound.
pub fn spread_share(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// What is reported for every timing: median, quartiles, extremes and the
/// sample count, plus p90 only where at least 100 samples exist.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub p90: Option<f64>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        let (q1, median, q3) = quartiles(xs);
        Summary {
            n: v.len(),
            min: v.first().copied().unwrap_or(f64::NAN),
            q1,
            median,
            q3,
            max: v.last().copied().unwrap_or(f64::NAN),
            p90: (v.len() >= 100).then(|| v[(v.len() * 9).div_ceil(10) - 1]),
        }
    }

    pub fn to_json(&self) -> Value {
        let fields = [
            ("n", self.n as f64),
            ("min", self.min),
            ("q1", self.q1),
            ("median", self.median),
            ("q3", self.q3),
            ("max", self.max),
        ];
        Value::obj(
            fields
                .into_iter()
                .chain(self.p90.map(|p90| ("p90", p90)))
                .map(|(k, v)| (k, Value::Num(v))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn summary_reports_p90_only_from_100_samples() {
        let small: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(Summary::of(&small).p90, None);
        let big: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&big);
        assert_eq!((s.n, s.min, s.max), (100, 1.0, 100.0));
        assert_eq!(s.p90, Some(90.0));
    }
}
