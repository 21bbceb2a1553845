//! Percentile, window-median and spread arithmetic.

use bitflow_benchmark::stats::*;

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.90), 90.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.5), 7.0);
    assert!(percentile(&[], 0.5).is_nan());
    // Ten samples: the p90 is the ninth, never an interpolation.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 0.9), 9.0);
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(highest_supported_tail(86).0, "p50");
    assert_eq!(highest_supported_tail(100).0, "p90");
    assert_eq!(highest_supported_tail(999).0, "p90");
    assert_eq!(highest_supported_tail(1000).0, "p99");
}

#[test]
fn iqr_share_matches_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // statistics.quantiles([10, 12, 11, 30], n=4) == [10.25, 11.5, 25.5]
    assert!((iqr_share(&[10.0, 12.0, 11.0, 30.0]) - (25.5 - 10.25) / 11.5).abs() < 1e-12);
    assert_eq!(iqr_share(&[5.0]), 0.0);
}

#[test]
fn windows_split_by_count_with_exact_boundaries() {
    // Nine completions, one every 0.5 s, then a hiccup delays the last
    // three by 10 s: only the last window sees it.
    let mut samples: Vec<(f64, f64)> = (1..=9).map(|k| (k as f64 * 0.5, 500.0)).collect();
    for s in &mut samples[6..] {
        s.0 += 10.0;
        s.1 = 3833.0;
    }
    let w = split_windows(&samples, 3);
    assert_eq!(w.len(), 3);
    assert_eq!(w[0].values.len(), 3);
    assert!((w[0].span_s - 1.5).abs() < 1e-12);
    assert!((w[1].span_s - 1.5).abs() < 1e-12);
    assert!((w[2].span_s - 11.5).abs() < 1e-12);
    let rates = window_rates(&w, 1.0);
    assert!((rates[0] - 2.0).abs() < 1e-12);
    // The median over windows ignores the hiccup entirely.
    assert!((median(&rates) - 2.0).abs() < 1e-12);
    assert_eq!(median(&window_quantiles(&w, 0.5)), 500.0);
}

#[test]
fn windows_with_fewer_samples_than_windows() {
    let w = split_windows(&[(1.0, 5.0), (2.0, 6.0)], 3);
    assert_eq!(w.iter().map(|w| w.values.len()).sum::<usize>(), 2);
    assert!(split_windows(&[], 3).is_empty());
}

#[test]
fn reductions_over_windows() {
    // Three fast windows of ten, and one slow one.
    let ms = [
        154.0, 178.0, 200.0, 200.0, 199.0, 196.0, 240.0, 155.0, 201.0, 155.0,
    ];
    assert_eq!(Over::Median.reduce(&ms, true), 197.5);
    assert_eq!(Over::Best.reduce(&ms, true), 154.0);
    // Rates: the best is the highest.
    let per_s = [6.4, 5.6, 5.0, 5.0, 5.02, 5.1, 4.1, 6.45, 4.98, 6.45];
    assert_eq!(Over::Median.reduce(&per_s, false), 5.06);
    assert_eq!(Over::Best.reduce(&per_s, false), 6.45);
    assert_eq!(Over::Best.reduce(&[3.0], true), 3.0);
    assert!(Over::Median.reduce(&[], false).is_nan());
    assert!(Over::Best.reduce(&[], true).is_nan());
}
