//! # aas-control — feedback control for software QoS
//!
//! The paper's §3 argues that feedback control should govern adaptive
//! systems, but that "the formalisms adopted in traditional control
//! systems, such as differential equations, are generally not suitable for
//! controlling software products", motivating *intelligent controllers*
//! built with soft computing. This crate provides both sides of that
//! argument, ready for head-to-head evaluation:
//!
//! - [`pid`] — the classical PID baseline (with clamping and anti-windup);
//! - [`fuzzy`] — a full Mamdani fuzzy-logic controller (membership
//!   functions, linguistic variables, rule matrix, centroid
//!   defuzzification);
//! - [`threshold`] — the naive bang-bang baseline;
//! - [`plant`] — linear and software-queue (nonlinear, saturating, dead
//!   time) plants;
//! - [`control_loop`] — the sample–compute–actuate loop;
//! - [`eval`] — step-response evaluation (overshoot, settling, ITAE);
//! - [`qos`] — contracts, compliance integration and service ladders for
//!   quality-aware middleware;
//! - [`negotiate`] / [`situational`] — the GORNA upgrade (DESIGN.md
//!   §2.10): per-loop control becomes global arbitration. Each agent's
//!   [`negotiate::BudgetRequest`] declares a floor, a demand and a utility
//!   curve over resource grants, and a [`negotiate::Negotiator`] solves a
//!   deterministic multi-objective (latency/availability/cost) arbitration
//!   against the [`situational::SituationalModel`] each tick. The runtime
//!   derives the requests from observed load and acts on the grants.
//!
//! ```
//! use aas_control::control_loop::{Actuation, ControlLoop, Direction};
//! use aas_control::eval::{analyze, run_closed_loop};
//! use aas_control::fuzzy::FuzzyController;
//! use aas_control::plant::FirstOrderLag;
//!
//! // Fuzzy output acts as a *rate*: the loop integrates it, which drives
//! // steady-state error to zero on this plant.
//! let mut cl = ControlLoop::new(
//!     Box::new(FuzzyController::standard(10.0, 50.0, 20.0)),
//!     10.0,
//!     Direction::Direct,
//!     Actuation::Incremental { min: 0.0, max: 50.0 },
//! );
//! let mut plant = FirstOrderLag::new(1.0, 0.5);
//! let trace = run_closed_loop(&mut cl, &mut plant, 20.0, 0.05);
//! let metrics = analyze(&trace, 10.0, 0.0);
//! assert!(metrics.steady_state_error < 2.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod control_loop;
pub mod eval;
pub mod fuzzy;
pub mod negotiate;
pub mod pid;
pub mod plant;
pub mod qos;
pub mod situational;
pub mod threshold;

pub use control_loop::{Actuation, ControlLoop, Direction};
pub use eval::{analyze, run_closed_loop, ResponseMetrics};
pub use fuzzy::FuzzyController;
pub use negotiate::{
    BudgetRequest, DenyReason, Grant, NegotiationOutcome, Negotiator, NegotiatorMutation,
    ObjectiveVector, ObjectiveWeights, ResourceKind, ResourceVector, UtilityCurve,
};
pub use pid::PidController;
pub use plant::{FirstOrderLag, Plant, SoftwareQueue};
pub use qos::{Bound, ComplianceTracker, QosContract, ServiceLadder, ServiceLevel};
pub use situational::{AgentObservation, NodeSituation, SituationalModel};
pub use threshold::ThresholdController;

/// A feedback controller: maps an error signal to a control output.
///
/// The loop convention is *error in, actuation out*: positive error means
/// the measurement must rise (see
/// [`control_loop::Direction`] for reverse-acting processes).
pub trait Controller {
    /// Computes the control output for `error` observed `dt` seconds after
    /// the previous sample. Implementations must tolerate garbage input
    /// (non-finite error, non-positive `dt`) by returning `0.0`.
    fn update(&mut self, error: f64, dt: f64) -> f64;

    /// Clears internal state (integrators, derivative memory).
    fn reset(&mut self);

    /// A short stable name for reports (`"pid"`, `"fuzzy"`, …).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controllers_are_object_safe_and_named() {
        let cs: Vec<Box<dyn Controller + Send>> = vec![
            Box::new(PidController::new(1.0, 0.0, 0.0)),
            Box::new(FuzzyController::standard(1.0, 1.0, 1.0)),
            Box::new(ThresholdController::new(0.1, 1.0)),
        ];
        let names: Vec<&str> = cs.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["pid", "fuzzy", "threshold"]);
    }

    #[test]
    fn all_controllers_push_in_error_direction() {
        let mut cs: Vec<Box<dyn Controller + Send>> = vec![
            Box::new(PidController::new(1.0, 0.1, 0.0)),
            Box::new(FuzzyController::standard(10.0, 10.0, 5.0)),
            Box::new(ThresholdController::new(0.1, 1.0)),
        ];
        for c in &mut cs {
            assert!(c.update(5.0, 0.1) > 0.0, "{} up", c.name());
            c.reset();
            assert!(c.update(-5.0, 0.1) < 0.0, "{} down", c.name());
        }
    }
}
