//! The sample–compute–actuate control loop.
//!
//! A [`ControlLoop`] wires a [`Controller`] to a setpoint and an actuation
//! style, producing the actuator value from each measurement. It is the
//! feedback-control skeleton of the paper's §3: "it is easier to correct
//! the errors of a system during its operational phase rather than
//! designing the system to be ideal at the creation time".

use crate::Controller;
use core::fmt;

/// Which way the actuator moves the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// More actuation raises the measurement (e.g. throughput control).
    Direct,
    /// More actuation lowers the measurement (e.g. latency control: more
    /// capacity, less latency).
    Reverse,
}

/// How the controller output maps to the actuator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Actuation {
    /// The controller output *is* the actuator value.
    Positional,
    /// The controller output is a rate of change; the loop integrates it
    /// and clamps the result to `[min, max]`.
    Incremental {
        /// Minimum actuator value.
        min: f64,
        /// Maximum actuator value.
        max: f64,
    },
}

/// A closed control loop around one controller.
///
/// # Examples
///
/// ```
/// use aas_control::control_loop::{Actuation, ControlLoop, Direction};
/// use aas_control::pid::PidController;
///
/// let mut cl = ControlLoop::new(
///     Box::new(PidController::new(1.0, 0.1, 0.0)),
///     50.0, // setpoint
///     Direction::Direct,
///     Actuation::Positional,
/// );
/// let u = cl.tick(20.0, 0.1); // measured below setpoint: push up
/// assert!(u > 0.0);
/// ```
pub struct ControlLoop {
    controller: Box<dyn Controller + Send>,
    setpoint: f64,
    direction: Direction,
    actuation: Actuation,
    actuator: f64,
    ticks: u64,
}

impl fmt::Debug for ControlLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlLoop")
            .field("controller", &self.controller.name())
            .field("setpoint", &self.setpoint)
            .field("direction", &self.direction)
            .field("actuator", &self.actuator)
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl ControlLoop {
    /// Creates a loop.
    #[must_use]
    pub fn new(
        controller: Box<dyn Controller + Send>,
        setpoint: f64,
        direction: Direction,
        actuation: Actuation,
    ) -> Self {
        let actuator = match actuation {
            Actuation::Positional => 0.0,
            Actuation::Incremental { min, .. } => min,
        };
        ControlLoop {
            controller,
            setpoint,
            direction,
            actuation,
            actuator,
            ticks: 0,
        }
    }

    /// Sets the initial actuator value (useful for incremental loops that
    /// should start from a warm allocation).
    #[must_use]
    pub fn with_initial_actuator(mut self, value: f64) -> Self {
        self.actuator = value;
        self
    }

    /// The current setpoint.
    #[must_use]
    pub fn setpoint(&self) -> f64 {
        self.setpoint
    }

    /// Changes the setpoint.
    pub fn set_setpoint(&mut self, setpoint: f64) {
        self.setpoint = setpoint;
    }

    /// The current actuator value.
    #[must_use]
    pub fn actuator(&self) -> f64 {
        self.actuator
    }

    /// Number of ticks executed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Feeds one measurement taken `dt` seconds after the previous one;
    /// returns the new actuator value.
    pub fn tick(&mut self, measured: f64, dt: f64) -> f64 {
        self.ticks += 1;
        let raw_error = self.setpoint - measured;
        let error = match self.direction {
            Direction::Direct => raw_error,
            Direction::Reverse => -raw_error,
        };
        let output = self.controller.update(error, dt);
        self.actuator = match self.actuation {
            Actuation::Positional => output,
            Actuation::Incremental { min, max } => (self.actuator + output * dt).clamp(min, max),
        };
        self.actuator
    }

    /// Resets the controller and (for incremental loops) the actuator.
    pub fn reset(&mut self) {
        self.controller.reset();
        self.actuator = match self.actuation {
            Actuation::Positional => 0.0,
            Actuation::Incremental { min, .. } => min,
        };
        self.ticks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::PidController;
    use crate::threshold::ThresholdController;

    #[test]
    fn direct_loop_pushes_toward_setpoint() {
        let mut cl = ControlLoop::new(
            Box::new(PidController::new(1.0, 0.0, 0.0)),
            10.0,
            Direction::Direct,
            Actuation::Positional,
        );
        assert!(cl.tick(0.0, 0.1) > 0.0, "below setpoint: push up");
        assert!(cl.tick(20.0, 0.1) < 0.0, "above setpoint: pull down");
    }

    #[test]
    fn reverse_loop_flips_error() {
        let mut cl = ControlLoop::new(
            Box::new(PidController::new(1.0, 0.0, 0.0)),
            100.0, // latency target
            Direction::Reverse,
            Actuation::Positional,
        );
        // Latency 500 > target 100: need MORE actuation (positive).
        assert!(cl.tick(500.0, 0.1) > 0.0);
        // Latency 10 < target: can shed capacity.
        assert!(cl.tick(10.0, 0.1) < 0.0);
    }

    #[test]
    fn incremental_integrates_and_clamps() {
        let mut cl = ControlLoop::new(
            Box::new(ThresholdController::new(0.5, 2.0)),
            10.0,
            Direction::Direct,
            Actuation::Incremental { min: 0.0, max: 5.0 },
        );
        // Persistent positive error: actuator ratchets up to the clamp.
        let mut u = 0.0;
        for _ in 0..10 {
            u = cl.tick(0.0, 1.0);
        }
        assert_eq!(u, 5.0);
        // Persistent negative error: back to the floor.
        for _ in 0..10 {
            u = cl.tick(100.0, 1.0);
        }
        assert_eq!(u, 0.0);
    }

    #[test]
    fn setpoint_change_takes_effect() {
        let mut cl = ControlLoop::new(
            Box::new(PidController::new(1.0, 0.0, 0.0)),
            10.0,
            Direction::Direct,
            Actuation::Positional,
        );
        assert!(cl.tick(10.0, 0.1).abs() < 1e-12);
        cl.set_setpoint(20.0);
        assert!(cl.tick(10.0, 0.1) > 0.0);
        assert_eq!(cl.setpoint(), 20.0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut cl = ControlLoop::new(
            Box::new(PidController::new(0.0, 1.0, 0.0)),
            10.0,
            Direction::Direct,
            Actuation::Incremental { min: 1.0, max: 9.0 },
        )
        .with_initial_actuator(3.0);
        assert_eq!(cl.actuator(), 3.0);
        cl.tick(0.0, 1.0);
        cl.reset();
        assert_eq!(cl.actuator(), 1.0);
        assert_eq!(cl.ticks(), 0);
    }
}
