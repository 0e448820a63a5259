//! Order statistics for trial samples: median, quartiles and the
//! tail-percentile rule.

/// Sorted copy of `values` (NaNs would poison every statistic; the
/// benchmark never produces them, so they sort last and show up).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method), so this package and the driver
/// that judges it agree on a spread. Fewer than two values have no spread:
/// both quartiles are then the single value (or `0.0`).
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are compared with. `0.0` when the median is zero.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

/// One metric over a run's trials: the reported value, and the per-trial
/// samples with their quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the samples.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The samples, in trial order.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`.
    #[must_use]
    pub fn of(samples: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&samples);
        Summary {
            value: median(&samples),
            q1,
            q3,
            samples,
        }
    }
}

/// The highest of the 99.9th, 99th, 95th and 90th percentiles that still
/// has at least ten samples beyond it, with its value (nearest rank), or
/// `None` when even the 90th has fewer.
#[must_use]
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    [999usize, 990, 950, 900].into_iter().find_map(|per_mille| {
        let rank = (n * per_mille).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, v[rank - 1]))
    })
}

/// The `q`-quantile of an `aas-obs` histogram, interpolated inside its
/// bucket. `Histogram::quantile` answers with the bucket's midpoint, which
/// moves in steps of a sixteenth of an octave (5% around 40 ms) and reads
/// the same to the last digit for most seeds; placing the rank linearly
/// between the bucket's edges, from the two cumulative fractions the
/// histogram exposes, gives a value that follows the distribution.
#[must_use]
pub fn histogram_quantile(h: &aas_obs::Histogram, q: f64) -> f64 {
    let at = h.quantile(q);
    if h.count() == 0 || at <= 0.0 || !at.is_finite() {
        return at;
    }
    // The bucket holding `at`: octave 2^e, sixteen sub-buckets each.
    let octave = at.log2().floor().exp2();
    let width = octave / 16.0;
    let sub = ((at / octave - 1.0) * 16.0).floor().clamp(0.0, 15.0);
    let lo = octave + sub * width;
    let before = h.fraction_below(lo);
    let through = h.fraction_below(lo + width / 2.0);
    if through <= before {
        return at;
    }
    let share = ((q - before) / (through - before)).clamp(0.0, 1.0);
    (lo + width * share).clamp(h.min(), h.max())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let mut h = aas_obs::Histogram::new();
        for i in 1..=10_000 {
            h.observe(f64::from(i) / 10.0);
        }
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let fine = histogram_quantile(&h, q);
            assert!(
                (fine - exact).abs() / exact < 0.005,
                "q{q}: {fine} should be within 0.5% of {exact}"
            );
        }
        // Two more samples in the tail move the interpolated value but
        // not the midpoint.
        let mid = h.quantile(0.99);
        let fine = histogram_quantile(&h, 0.99);
        for _ in 0..2 {
            h.observe(999.0);
        }
        assert_eq!(h.quantile(0.99), mid);
        assert!(histogram_quantile(&h, 0.99) > fine);
        assert_eq!(histogram_quantile(&aas_obs::Histogram::new(), 0.99), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let ramp = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 99 samples: the 90th percentile is rank 90, nine beyond.
        assert_eq!(tail_percentile(&ramp(99)), None);
        // 100 samples: rank 90 has exactly ten beyond; rank 95 has five.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        // 200 samples: the 95th (rank 190) has ten beyond, the 99th two.
        assert_eq!(tail_percentile(&ramp(200)), Some((95.0, 190.0)));
        // 1000 samples: the 99th has ten beyond, the 99.9th one.
        assert_eq!(tail_percentile(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9990.0)));
    }
}
