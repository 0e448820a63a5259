//! Property-based verification of the histogram's accuracy contract.
//!
//! The log2-bucketed histogram trades exactness for O(1) recording in
//! bounded memory; these properties pin down exactly how much it trades:
//! every reported percentile stays within one bucket's relative error of
//! the exact rank statistic, and merging is indistinguishable from having
//! recorded one concatenated stream.

use aas_obs::Histogram;
use proptest::prelude::*;

/// The exact rank statistic matching `Histogram::quantile`'s definition:
/// the smallest value with at least `ceil(q * n)` samples at or below it.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let n = sorted.len();
    let target = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[target - 1]
}

fn record(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    /// Every percentile the histogram reports is within one bucket's
    /// relative error of the exact order statistic.
    #[test]
    fn quantiles_within_one_bucket_of_exact_rank(
        values in prop::collection::vec(1e-6f64..1e9, 1..400),
        q in 0.0f64..1.0,
    ) {
        let h = record(&values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);

        for q in [q, 0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let approx = h.quantile(q);
            let exact = exact_quantile(&sorted, q);
            let tolerance = Histogram::RELATIVE_ERROR * exact;
            prop_assert!(
                (approx - exact).abs() <= tolerance,
                "q={q}: approx {approx} vs exact {exact} (tolerance {tolerance})"
            );
        }
    }

    /// The extremes are exact, not bucketed: quantile(0) is the true min
    /// and quantile(1) the true max.
    #[test]
    fn extremes_are_exact(values in prop::collection::vec(1e-9f64..1e12, 1..200)) {
        let h = record(&values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(h.quantile(0.0), sorted[0]);
        prop_assert_eq!(h.quantile(1.0), sorted[sorted.len() - 1]);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), sorted[sorted.len() - 1]);
    }

    /// merge(a, b) is indistinguishable from recording the concatenated
    /// stream: identical count, sum, extremes and every quantile.
    #[test]
    fn merge_equals_concatenated_stream(
        a in prop::collection::vec(1e-6f64..1e9, 0..200),
        b in prop::collection::vec(1e-6f64..1e9, 0..200),
    ) {
        let mut merged = record(&a);
        merged.merge(&record(&b));

        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        let whole = record(&concat);

        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().abs());
        if !concat.is_empty() {
            prop_assert_eq!(merged.min(), whole.min());
            prop_assert_eq!(merged.max(), whole.max());
            for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                prop_assert_eq!(
                    merged.quantile(q),
                    whole.quantile(q),
                    "q={} diverged after merge", q
                );
            }
        }
    }

    /// Recording order never matters: any permutation of the same stream
    /// produces an identical histogram.
    #[test]
    fn order_insensitive(values in prop::collection::vec(1e-3f64..1e6, 1..100)) {
        let forward = record(&values);
        let mut reversed_values = values.clone();
        reversed_values.reverse();
        let reversed = record(&reversed_values);
        prop_assert_eq!(forward.count(), reversed.count());
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert_eq!(forward.quantile(q), reversed.quantile(q));
        }
    }
}
