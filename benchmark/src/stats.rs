//! The few statistics the benchmark reports: median, quartile spread,
//! and the tail percentile rule of the choosing-metrics guide.

/// Median of `values` (mean of the two middle values when even).
///
/// # Panics
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("a timing is never NaN"));
    s
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`: p90 at n = 100, p99 at n = 1000, p83 at n = 61.
/// `None` below 21 samples, where that percentile would sit at or under
/// the median — report the maximum there instead.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= 2 * BEYOND {
        return None;
    }
    let s = sorted(values);
    let idx = n - BEYOND - 1;
    Some((100.0 * (n - BEYOND) as f64 / n as f64, s[idx]))
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// spread the acceptance rule is stated in. 0 for fewer than two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    ((q(3) - q(1)) / med).abs()
}

/// min / median / max / tail percentile of one timing metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub tail: Option<(f64, f64)>,
    pub spread: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        min: s[0],
        median: median(&s),
        max: s[s.len() - 1],
        tail: tail_percentile(&s),
        spread: quartile_spread(&s),
    }
}
