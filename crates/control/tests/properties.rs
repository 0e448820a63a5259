//! Property-based tests for controllers, plants and QoS tracking.

use aas_control::fuzzy::FuzzyController;
use aas_control::pid::PidController;
use aas_control::plant::{FirstOrderLag, Plant, SoftwareQueue};
use aas_control::qos::{ComplianceTracker, QosContract, ServiceLadder, ServiceLevel};
use aas_control::threshold::ThresholdController;
use aas_control::Controller;
use aas_sim::time::SimTime;
use proptest::prelude::*;

proptest! {
    /// A clamped PID never exceeds its output limits, whatever it is fed.
    #[test]
    fn pid_respects_limits(
        errors in prop::collection::vec(-1e6f64..1e6, 1..200),
        lo in -100.0f64..-1.0,
        hi in 1.0f64..100.0,
    ) {
        let mut pid = PidController::new(5.0, 2.0, 0.5).with_output_limits(lo, hi);
        for &e in &errors {
            let u = pid.update(e, 0.1);
            prop_assert!(u >= lo && u <= hi, "u = {u}");
        }
    }

    /// Fuzzy output is bounded by its output universe for any input.
    #[test]
    fn fuzzy_output_bounded(
        errors in prop::collection::vec(-1e6f64..1e6, 1..100),
        scale in 0.5f64..50.0,
    ) {
        let mut f = FuzzyController::standard(10.0, 10.0, scale);
        for &e in &errors {
            let u = f.update(e, 0.1);
            prop_assert!(u.abs() <= scale + 1e-9, "u = {u}, scale = {scale}");
        }
    }

    /// Threshold output is exactly one of {-step, 0, +step}.
    #[test]
    fn threshold_trivalent(
        errors in prop::collection::vec(-1e3f64..1e3, 1..100),
        band in 0.0f64..10.0,
        step in 0.1f64..10.0,
    ) {
        let mut t = ThresholdController::new(band, step);
        for &e in &errors {
            let u = t.update(e, 0.1);
            prop_assert!(u == 0.0 || (u - step).abs() < 1e-12 || (u + step).abs() < 1e-12);
        }
    }

    /// All controllers survive garbage (NaN/inf/zero-dt) without emitting
    /// non-finite output, and answer it with `0.0` as `Controller` asks.
    #[test]
    fn controllers_never_emit_nan(seed in 0u64..50) {
        let inputs = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0, 7.0];
        let dts = [0.0, -1.0, f64::NAN, 0.1];
        let mut cs: Vec<Box<dyn Controller + Send>> = vec![
            Box::new(PidController::new(1.0, 1.0, 1.0)),
            Box::new(FuzzyController::standard(5.0, 5.0, 5.0)),
            Box::new(ThresholdController::new(1.0, 1.0)),
        ];
        for c in &mut cs {
            for (i, &e) in inputs.iter().enumerate() {
                let dt = dts[(i + seed as usize) % dts.len()];
                let u = c.update(e, dt);
                prop_assert!(u.is_finite(), "{}: {u}", c.name());
                if !(e.is_finite() && dt > 0.0 && dt.is_finite()) {
                    prop_assert_eq!(u, 0.0, "{} on garbage ({}, {})", c.name(), e, dt);
                }
            }
        }
    }

    /// The first-order lag converges toward gain * u for constant input.
    #[test]
    fn lag_converges(gain in 0.1f64..10.0, u in -10.0f64..10.0) {
        let mut p = FirstOrderLag::new(gain, 0.5);
        let mut y = 0.0;
        for _ in 0..400 {
            y = p.step(u, 0.05);
        }
        prop_assert!((y - gain * u).abs() < 0.05 * (1.0 + (gain * u).abs()));
    }

    /// The software queue is conservative: the queue length never goes
    /// negative and drains completely when arrivals stop.
    #[test]
    fn queue_conservation(
        arrivals in prop::collection::vec(0.0f64..100.0, 1..50),
        service in 0.1f64..100.0,
    ) {
        let mut q = SoftwareQueue::new(200.0, 1.0, 0);
        for &a in &arrivals {
            q.set_arrival_rate(a);
            q.step(service, 0.5);
            prop_assert!(q.queue_len() >= 0.0);
        }
        q.set_arrival_rate(0.0);
        for _ in 0..10_000 {
            q.step(200.0, 1.0);
        }
        prop_assert!(q.queue_len() < 1e-6);
    }

    /// Compliance tracking: violated <= observed; fraction in [0, 1]; the
    /// fraction is 0 for always-compliant streams and 1 for never-compliant
    /// interior streams.
    #[test]
    fn compliance_tracker_bounds(values in prop::collection::vec(0.0f64..200.0, 2..100)) {
        let mut t = ComplianceTracker::new(QosContract::upper("m", 100.0));
        for (i, &v) in values.iter().enumerate() {
            t.sample(SimTime::from_secs(i as u64), v);
        }
        prop_assert!(t.violated() <= t.observed());
        let f = t.violation_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        if values.iter().all(|v| *v <= 100.0) {
            prop_assert_eq!(f, 0.0);
        }
        // All but the last sample violating => fraction 1 (zero-order hold).
        if values[..values.len() - 1].iter().all(|v| *v > 100.0) {
            prop_assert!((f - 1.0).abs() < 1e-9);
        }
    }

    /// Ladder adjustment is clamped and switch counting matches actual
    /// level changes.
    #[test]
    fn ladder_adjust_clamped(deltas in prop::collection::vec(-5i64..5, 1..100)) {
        let mut l = ServiceLadder::new(
            (0..5).map(|i| ServiceLevel::new(format!("l{i}"), f64::from(i) / 4.0, f64::from(i))).collect(),
        ).unwrap();
        let mut switches = 0u64;
        for &d in &deltas {
            let before = l.position();
            if l.adjust(d) {
                switches += 1;
                prop_assert_ne!(before, l.position());
            } else {
                prop_assert_eq!(before, l.position());
            }
            prop_assert!(l.position() < l.len());
        }
        prop_assert_eq!(l.switches(), switches);
    }
}
