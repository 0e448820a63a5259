//! The histograms store the octaves they have seen and answer as the
//! dense store did.
//!
//! `dense` below is the implementation every histogram had up to
//! `e2b94c6` — 71 octaves x 16 cells, allocated whole — kept as the
//! reference: over seeded streams the run-backed [`Histogram`], and a
//! registry's [`HistogramHandle`] read in place or through its snapshot,
//! must agree with it on every public answer to the bit, because
//! `sim_p99_ms` and the benchmark's fingerprints hash those bits.

use aas_obs::{Histogram, HistogramHandle, MetricsRegistry};
use proptest::prelude::*;

mod dense {
    const SUB_BITS: u32 = 4;
    const SUBS: usize = 1 << SUB_BITS;
    const EXP_MIN: i32 = -30;
    const EXP_MAX: i32 = 40;
    const OCTAVES: usize = (EXP_MAX - EXP_MIN + 1) as usize;
    const BUCKETS: usize = OCTAVES * SUBS;

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

    fn bucket_value(i: usize) -> f64 {
        let octave = (i / SUBS) as i32 + EXP_MIN;
        let sub = (i % SUBS) as f64;
        let base = (octave as f64).exp2();
        base * (1.0 + (2.0 * sub + 1.0) / (2.0 * SUBS as f64))
    }

    pub struct Histogram {
        buckets: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    }

    impl Histogram {
        pub fn new() -> Self {
            Histogram {
                buckets: vec![0; BUCKETS],
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        pub fn observe(&mut self, x: f64) {
            if !x.is_finite() || x < 0.0 {
                return;
            }
            self.buckets[index_of(x)] += 1;
            self.count += 1;
            self.sum += x;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }

        pub fn count(&self) -> u64 {
            self.count
        }

        pub fn sum(&self) -> f64 {
            self.sum
        }

        pub fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            }
        }

        pub fn min(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.min
            }
        }

        pub fn max(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.max
            }
        }

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
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return bucket_value(i).clamp(self.min, self.max);
                }
            }
            self.max
        }

        pub fn fraction_below(&self, threshold: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let mut below = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                if c > 0 && bucket_value(i) <= threshold {
                    below += c;
                }
            }
            below as f64 / self.count as f64
        }

        pub fn merge(&mut self, other: &Histogram) {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// `(1 + m) * 2^e` over every octave with a bucket of its own and a few
/// beyond either end.
fn anywhere() -> impl Strategy<Value = f64> {
    (-36i32..46, 0.0f64..1.0).prop_map(|(e, m)| (1.0 + m) * f64::from(e).exp2())
}

/// The values a store must ignore, or keep in an edge bucket.
fn edge() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1e-300),
        Just(f64::from(-30).exp2()),
        Just(f64::from(-31).exp2()),
        Just(1.999 * f64::from(40).exp2()),
        Just(f64::from(41).exp2()),
        Just(f64::MAX),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(-0.0),
        Just(-1.0),
    ]
}

/// Streams of three shapes: all over the range, one latency-like
/// cluster, and either with edge values mixed in.
fn stream() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(anywhere(), 0..120),
        prop::collection::vec(0.5f64..90.0, 0..120),
        prop::collection::vec(prop_oneof![anywhere(), 1.0f64..3.0, edge()], 0..60),
    ]
}

/// Which way a stream is fed: as drawn, ascending, or descending (so
/// that the run grows downwards octave by octave).
fn ordered(mut values: Vec<f64>, order: u32) -> Vec<f64> {
    match order {
        1 => values.sort_by(f64::total_cmp),
        2 => values.sort_by(|a, b| b.total_cmp(a)),
        _ => {}
    }
    values
}

fn both(values: &[f64]) -> (dense::Histogram, Histogram) {
    let (mut reference, mut h) = (dense::Histogram::new(), Histogram::new());
    for &v in values {
        reference.observe(v);
        h.observe(v);
    }
    (reference, h)
}

const QS: [f64; 14] = [
    0.0,
    5e-324,
    1e-12,
    0.001,
    0.01,
    0.25,
    0.5,
    0.9,
    0.99,
    0.999,
    0.999_999_999,
    1.0,
    -1.0,
    2.0,
];

/// Every public answer of `h`, to the bit, against the reference's.
fn same_answers(
    reference: &dense::Histogram,
    h: &Histogram,
    q: f64,
    thresholds: &[f64],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), reference.count());
    for (got, want, what) in [
        (h.sum(), reference.sum(), "sum"),
        (h.mean(), reference.mean(), "mean"),
        (h.min(), reference.min(), "min"),
        (h.max(), reference.max(), "max"),
        (h.p50(), reference.quantile(0.50), "p50"),
        (h.p90(), reference.quantile(0.90), "p90"),
        (h.p99(), reference.quantile(0.99), "p99"),
        (h.p999(), reference.quantile(0.999), "p999"),
    ] {
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: {} vs {}",
            what,
            got,
            want
        );
    }
    for q in QS.into_iter().chain([q]) {
        let (got, want) = (h.quantile(q), reference.quantile(q));
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "q={}: {} vs {}",
            q,
            got,
            want
        );
    }
    let fixed = [
        0.0,
        f64::MIN_POSITIVE,
        1.0,
        42.0,
        f64::INFINITY,
        -1.0,
        f64::NAN,
    ];
    for &t in thresholds.iter().chain(&fixed) {
        let (got, want) = (h.fraction_below(t), reference.fraction_below(t));
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "below {}: {} vs {}",
            t,
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// One stream, fed in any order, reads the same from both stores —
    /// and so does a clone, and so does the empty histogram.
    #[test]
    fn a_stream_reads_as_it_did_from_the_dense_store(
        values in stream(),
        order in 0u32..3,
        q in 0.0f64..1.0,
    ) {
        let values = ordered(values, order);
        let (reference, h) = both(&values);
        // Thresholds where the answer steps: the values themselves.
        same_answers(&reference, &h, q, &values)?;
        same_answers(&reference, &h.clone(), q, &[])?;
    }

    /// Merging runs that are disjoint, overlapping, nested or empty reads
    /// the same as merging the dense stores, either way round.
    #[test]
    fn a_merge_reads_as_it_did_from_the_dense_store(
        a in stream(),
        b in stream(),
        order in 0u32..3,
        q in 0.0f64..1.0,
    ) {
        let (a, b) = (ordered(a, order), ordered(b, order));
        let (mut ref_ab, mut ab) = both(&a);
        let (mut ref_ba, mut ba) = both(&b);
        let (ref_a, only_a) = both(&a);
        ab.merge(&ba);
        ref_ab.merge(&ref_ba);
        same_answers(&ref_ab, &ab, q, &b)?;
        ba.merge(&only_a);
        ref_ba.merge(&ref_a);
        same_answers(&ref_ba, &ba, q, &a)?;
    }

    /// A registered handle read in place, its snapshot, and the dense
    /// store agree — and a snapshot merges like any other histogram.
    #[test]
    fn a_handle_reads_in_place_what_its_snapshot_reads(
        values in stream(),
        order in 0u32..3,
        q in 0.0f64..1.0,
    ) {
        let values = ordered(values, order);
        let handle = MetricsRegistry::new().histogram("lat");
        for &v in &values {
            handle.observe(v);
        }
        let (reference, _) = both(&values);
        let snap = handle.snapshot();
        same_answers(&reference, &snap, q, &values)?;
        prop_assert_eq!(handle.count(), snap.count());
        prop_assert_eq!(handle.mean().to_bits(), snap.mean().to_bits());
        for q in QS.into_iter().chain([q]) {
            prop_assert_eq!(
                handle.quantile(q).to_bits(),
                snap.quantile(q).to_bits(),
                "q={}", q
            );
        }
        let (mut ref_twice, mut twice) = both(&values);
        twice.merge(&snap);
        ref_twice.merge(&reference);
        same_answers(&ref_twice, &twice, q, &values)?;
    }
}

/// A `-0.0` counts as a zero and does not pass for the maximum; the
/// minimum keeps its sign, as the dense store's does.
#[test]
fn a_negative_zero_does_not_pass_for_the_maximum() {
    let h = HistogramHandle::new();
    h.observe(-0.0);
    h.observe(5.0);
    assert_eq!(h.count(), 2);
    assert_eq!(h.quantile(1.0), 5.0);
    assert_eq!(h.snapshot().max(), 5.0);
    assert_eq!(h.snapshot().min().to_bits(), (-0.0_f64).to_bits());
}
