//! Median, the "at least ten samples beyond it" percentile rule, and the
//! quartile spread the acceptance rule is stated in.

use pgr_benchmark::stats::{median, quartile_spread, summarize, tail_percentile};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled on purpose: every statistic sorts for itself.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.swap(0, n / 2);
    v
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&ramp(61)), 31.0);
}

#[test]
#[should_panic(expected = "no samples")]
fn median_of_nothing_is_a_bug() {
    median(&[]);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // n = 11: ten samples beyond would leave the minimum — none; the
    // report prints the maximum instead.
    assert_eq!(tail_percentile(&ramp(11)), None);
    // Up to n = 20 the candidate sits at or under the median: none.
    assert_eq!(tail_percentile(&ramp(20)), None);
    // n = 21: the 11th smallest has exactly ten samples beyond it.
    assert_eq!(
        tail_percentile(&ramp(21)),
        Some((100.0 * 11.0 / 21.0, 11.0))
    );
    // n = 61 (the fast workloads' cap): p83, the 51st smallest.
    let (pct, value) = tail_percentile(&ramp(61)).unwrap();
    assert_eq!(value, 51.0);
    assert_eq!(pct.floor(), 83.0);
    // The textbook cases: p90 at n = 100, p99 at n = 1000.
    assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
    assert_eq!(tail_percentile(&ramp(1000)), Some((99.0, 990.0)));
}

#[test]
fn tail_percentile_always_leaves_ten_beyond() {
    for n in 21..200 {
        let v = ramp(n);
        let (_, value) = tail_percentile(&v).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10, "n = {n}");
    }
}

#[test]
fn quartile_spread_matches_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert!((quartile_spread(&ramp(10)) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
    let v = [64.0, 1.0, 2.0, 32.0, 4.0, 16.0, 8.0];
    assert!((quartile_spread(&v) - 30.0 / 8.0).abs() < 1e-12);
    // statistics.quantiles([10, 11], n=4) == [9.75, 10.5, 11.25]
    assert!((quartile_spread(&[10.0, 11.0]) - 1.5 / 10.5).abs() < 1e-12);
    assert_eq!(quartile_spread(&[7.0]), 0.0);
    assert_eq!(quartile_spread(&[]), 0.0);
    assert_eq!(quartile_spread(&[5.0; 9]), 0.0);
}

#[test]
fn summary_reports_count_extremes_and_tail() {
    let s = summarize(&ramp(61));
    assert_eq!((s.n, s.min, s.median, s.max), (61, 1.0, 31.0, 61.0));
    assert_eq!(s.tail.map(|(_, v)| v), Some(51.0));
    assert_eq!(summarize(&ramp(7)).tail, None);
}
