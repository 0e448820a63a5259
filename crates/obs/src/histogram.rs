//! Log2-bucketed streaming histograms.
//!
//! Buckets are derived directly from the IEEE-754 bit pattern: the
//! exponent selects an octave and the top four mantissa bits select one of
//! 16 sub-buckets within it, so indexing is a handful of integer ops with
//! no logarithm. Sixteen sub-buckets per octave bound the relative
//! quantile error by [`Histogram::RELATIVE_ERROR`] (one bucket width,
//! 1/16), while exact min/max are tracked separately so the extreme
//! quantiles are always exact. Histograms with identical geometry merge by
//! bucket-wise addition, which is what makes per-instance recording and
//! workspace-wide aggregation the same data structure.
//!
//! Storage follows the octaves a histogram has seen, not the 71 it could
//! see (DESIGN.md §3, *Histogram storage*): one contiguous run of counts
//! from the first to the last touched octave.

/// Sub-bucket resolution: 2^4 = 16 sub-buckets per octave.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Smallest unbiased exponent with its own octave (2^-30 ≈ 9.3e-10).
const EXP_MIN: i32 = -30;
/// Largest unbiased exponent with its own octave (2^40; values up to
/// ~2.2e12 stay in range).
const EXP_MAX: i32 = 40;
const OCTAVES: usize = (EXP_MAX - EXP_MIN + 1) as usize;
const BUCKETS: usize = OCTAVES * SUBS;

/// Maps a non-negative finite value to its bucket index.
#[inline]
fn index_of(x: f64) -> usize {
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < EXP_MIN {
        return 0;
    }
    if exp > EXP_MAX {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (exp - EXP_MIN) as usize * SUBS + sub
}

/// Geometric midpoint of bucket `i`, used as the quantile estimate.
fn bucket_value(i: usize) -> f64 {
    let octave = (i / SUBS) as i32 + EXP_MIN;
    let sub = (i % SUBS) as f64;
    // Bucket spans 2^e * [1 + sub/16, 1 + (sub+1)/16); return its center.
    let base = (octave as f64).exp2();
    base * (1.0 + (2.0 * sub + 1.0) / (2.0 * SUBS as f64))
}

/// Bounded-memory log2-bucketed histogram for latency-like positive
/// values: an empty one owns no heap, a filled one sixteen counts for
/// every octave between the smallest and the largest it has seen.
///
/// # Examples
///
/// ```
/// use aas_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for x in 1..=1000 { h.observe(x as f64); }
/// let p50 = h.quantile(0.5);
/// assert!((p50 - 500.0).abs() / 500.0 < Histogram::RELATIVE_ERROR);
/// assert_eq!(h.quantile(0.0), 1.0);
/// assert_eq!(h.quantile(1.0), 1000.0);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket index of `run[0]`, a multiple of [`SUBS`].
    lo: usize,
    /// Counts of buckets `lo .. lo + run.len()`: whole octaves, the first
    /// and the last of them touched.
    run: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Upper bound on the relative error of any interior quantile: one
    /// bucket's width relative to its lower edge, `1/16`.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            lo: 0,
            run: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Grows the run to hold the octaves of buckets `from .. to` (both
    /// octave-aligned, `from < to`).
    fn cover(&mut self, from: usize, to: usize) {
        if self.run.is_empty() {
            self.lo = from;
            self.run.resize(to - from, 0);
            return;
        }
        if from < self.lo {
            self.run
                .splice(0..0, std::iter::repeat_n(0, self.lo - from));
            self.lo = from;
        }
        if to > self.lo + self.run.len() {
            self.run.resize(to - self.lo, 0);
        }
    }

    /// The non-empty buckets in ascending index order.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (self.lo..)
            .zip(self.run.iter().copied())
            .filter(|&(_, c)| c > 0)
    }

    /// Records one non-negative observation. Negative or non-finite values
    /// are ignored.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        let i = index_of(x);
        if i.wrapping_sub(self.lo) >= self.run.len() {
            let octave = i - i % SUBS;
            self.cover(octave, octave + SUBS);
        }
        self.run[i - self.lo] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded observations; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded observation (exact); `0.0` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded observation (exact); `0.0` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`); `0.0` when empty.
    ///
    /// Exact min/max are returned at the extremes; interior quantiles are
    /// bucket midpoints, within [`Histogram::RELATIVE_ERROR`] of the exact
    /// rank value.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, c) in self.buckets() {
            seen += c;
            if seen >= target {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fraction of recorded observations at or below `threshold`, in
    /// `[0, 1]`; `0.0` when empty. Resolution is one bucket (observations
    /// are attributed by bucket midpoint), so the answer is within
    /// [`Histogram::RELATIVE_ERROR`] of exact around the threshold —
    /// deadline-goodput accounting, not an exact rank query.
    #[must_use]
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let below: u64 = self
            .buckets()
            .filter(|&(i, _)| bucket_value(i) <= threshold)
            .map(|(_, c)| c)
            .sum();
        below as f64 / self.count as f64
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one. Equivalent to having
    /// recorded both streams into a single histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.run.is_empty() {
            self.cover(other.lo, other.lo + other.run.len());
            let at = other.lo - self.lo;
            for (a, b) in self.run[at..].iter_mut().zip(&other.run) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.observe(f64::from(i));
        }
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!(
                (got - expect).abs() / expect < Histogram::RELATIVE_ERROR,
                "q{q}: got {got}, want ~{expect}"
            );
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 10_000.0);
    }

    #[test]
    fn ignores_garbage() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(-1.0);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(1.0);
        b.observe(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(0.0), 1.0);
        assert_eq!(a.quantile(1.0), 100.0);
    }

    #[test]
    fn extreme_values_clamp_to_edge_buckets() {
        let mut h = Histogram::new();
        h.observe(1e-9);
        h.observe(1e12);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 1e-9);
        assert_eq!(h.quantile(1.0), 1e12);
    }

    #[test]
    fn zero_and_subnormal_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(1e-300);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn named_percentiles_are_ordered() {
        let mut h = Histogram::new();
        for i in 1..=100_000 {
            h.observe(f64::from(i));
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
    }
}
