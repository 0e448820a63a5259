//! Threshold (bang-bang with hysteresis) controller — the naive baseline.
//!
//! This is the "if the available resources fall below a certain threshold"
//! style of adaptation the paper mentions: react only when a bound is
//! crossed, by a fixed step. Simple, robust, but oscillation-prone —
//! exactly what experiments E4/E8 quantify against PID and fuzzy control.

use crate::Controller;
use serde::{Deserialize, Serialize};

/// Bang-bang controller with a hysteresis band.
///
/// While `|error| <= band` the output is zero; beyond the band the output
/// is a fixed `step` with the sign of the error.
///
/// # Examples
///
/// ```
/// use aas_control::threshold::ThresholdController;
/// use aas_control::Controller;
///
/// let mut t = ThresholdController::new(2.0, 1.0);
/// assert_eq!(t.update(0.5, 0.1), 0.0);  // inside the band
/// assert_eq!(t.update(5.0, 0.1), 1.0);  // above: step up
/// assert_eq!(t.update(-9.0, 0.1), -1.0); // below: step down
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdController {
    band: f64,
    step: f64,
}

impl ThresholdController {
    /// Creates a controller with dead band `band` and output step `step`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or non-finite.
    #[must_use]
    pub fn new(band: f64, step: f64) -> Self {
        assert!(band.is_finite() && band >= 0.0, "band must be non-negative");
        assert!(step.is_finite() && step >= 0.0, "step must be non-negative");
        ThresholdController { band, step }
    }
}

impl Controller for ThresholdController {
    fn update(&mut self, error: f64, dt: f64) -> f64 {
        if dt <= 0.0 || !dt.is_finite() || !error.is_finite() {
            return 0.0;
        }
        if error > self.band {
            self.step
        } else if error < -self.band {
            -self.step
        } else {
            0.0
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> &str {
        "threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_band_suppresses_small_errors() {
        let mut t = ThresholdController::new(1.0, 2.0);
        assert_eq!(t.update(0.99, 0.1), 0.0);
        assert_eq!(t.update(-0.99, 0.1), 0.0);
        assert_eq!(t.update(1.01, 0.1), 2.0);
        assert_eq!(t.update(-1.01, 0.1), -2.0);
    }

    #[test]
    fn zero_band_always_acts() {
        let mut t = ThresholdController::new(0.0, 1.0);
        assert_eq!(t.update(0.001, 0.1), 1.0);
        assert_eq!(t.update(0.0, 0.1), 0.0);
    }

    #[test]
    fn nan_error_is_ignored() {
        let mut t = ThresholdController::new(1.0, 1.0);
        assert_eq!(t.update(f64::NAN, 0.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "band")]
    fn negative_band_rejected() {
        let _ = ThresholdController::new(-1.0, 1.0);
    }
}
