//! Order statistics the harness reports: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them (the measure the accepting
//! driver uses for run-to-run spread), and nearest-rank percentiles for
//! pooled step latencies.

/// `values` sorted ascending (NaNs, which no timer produces, sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile `p` in `[0, 100]` of an ascending slice: the
/// smallest value with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the *exclusive* method of
/// Python's `statistics.quantiles(values, n=4)`. One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    assert!(!s.is_empty(), "quartiles of no samples");
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can push `j * 4` past `i * m` on tiny samples,
        // where Python extrapolates exactly like this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median with quartiles and the sample count — how every timing is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, _, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Run-to-run spread: interquartile distance as a share of the median
    /// (0 when the median is 0 — a count that stayed at zero has no spread).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // 20 samples: p95 is the 19th, leaving exactly one beyond it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), 19.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` = [2.75, 5.5, 8.25]
    /// `statistics.quantiles([10, 20, 40], n=4)` = [10.0, 20.0, 40.0]
    /// `statistics.quantiles([1, 3], n=4)` = [0.5, 2.0, 3.5]
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!(s.n, 10);
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
