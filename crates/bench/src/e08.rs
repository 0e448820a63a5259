//! E8 — classical vs intelligent control on linear vs software plants.
//!
//! Paper claim (§3): "the formalisms adopted in traditional control
//! systems, such as differential equations, are generally not suitable for
//! controlling software products"; intelligent (soft-computing)
//! controllers are introduced "for controlling complex systems, which
//! cannot be expressed using mathematical models".
//!
//! Harness: PID (tuned on the linear plant), fuzzy and threshold
//! controllers face (a) the linear first-order plant PID was made for and
//! (b) a software queue with saturating service and dead time. Reported:
//! overshoot, settling time, ITAE, steady-state error.

use crate::table::{exact, f2, Table, Tier};
use aas_control::control_loop::{Actuation, ControlLoop, Direction};
use aas_control::eval::{analyze, run_closed_loop, ResponseMetrics};
use aas_control::fuzzy::FuzzyController;
use aas_control::pid::PidController;
use aas_control::plant::{FirstOrderLag, Plant, SoftwareQueue};
use aas_control::threshold::ThresholdController;
use aas_control::Controller;

const DT: f64 = 0.1;
const HORIZON: f64 = 120.0;

/// A factory producing a fresh controller instance.
pub type ControllerFactory = Box<dyn Fn() -> Box<dyn Controller + Send>>;

/// The controllers compared.
#[must_use]
pub fn controllers() -> Vec<(&'static str, ControllerFactory)> {
    vec![
        (
            "pid",
            Box::new(|| {
                Box::new(PidController::new(2.0, 0.8, 0.1).with_output_limits(-50.0, 50.0))
                    as Box<dyn Controller + Send>
            }),
        ),
        (
            "fuzzy",
            Box::new(|| {
                Box::new(FuzzyController::standard(20.0, 60.0, 30.0)) as Box<dyn Controller + Send>
            }),
        ),
        (
            "threshold",
            Box::new(|| {
                Box::new(ThresholdController::new(1.0, 10.0)) as Box<dyn Controller + Send>
            }),
        ),
    ]
}

/// One plant × controller outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Plant name.
    pub plant: &'static str,
    /// Controller name.
    pub controller: &'static str,
    /// Step-response metrics.
    pub metrics: ResponseMetrics,
}

/// Evaluates one controller on the linear plant (setpoint 10).
#[must_use]
pub fn linear_cell(name: &'static str, make: &dyn Fn() -> Box<dyn Controller + Send>) -> Cell {
    let mut cl = ControlLoop::new(make(), 10.0, Direction::Direct, Actuation::Positional);
    let mut plant = FirstOrderLag::new(1.0, 2.0);
    let trace = run_closed_loop(&mut cl, &mut plant, HORIZON, DT);
    Cell {
        plant: "first-order-lag",
        controller: name,
        metrics: analyze(&trace, 10.0, 0.0),
    }
}

/// Evaluates one controller on the software queue: regulate latency to
/// 2 s while arrivals surge mid-run.
#[must_use]
pub fn queue_cell(name: &'static str, make: &dyn Fn() -> Box<dyn Controller + Send>) -> Cell {
    let mut cl = ControlLoop::new(
        make(),
        2.0, // latency setpoint (s)
        Direction::Reverse,
        Actuation::Incremental {
            min: 0.1,
            max: 100.0,
        },
    )
    .with_initial_actuator(1.0);
    let mut plant = SoftwareQueue::new(120.0, 2.0, 5); // saturating + dead time
    plant.set_arrival_rate(30.0);

    // Manual loop so the arrival surge can be injected.
    let steps = (HORIZON / DT) as usize;
    let mut trace = Vec::with_capacity(steps);
    let mut u = cl.actuator();
    for i in 0..steps {
        let t = i as f64 * DT;
        if (40.0..80.0).contains(&t) {
            plant.set_arrival_rate(80.0); // surge
        } else {
            plant.set_arrival_rate(30.0);
        }
        let y = plant.step(u, DT);
        u = cl.tick(y, DT);
        trace.push(aas_control::eval::TracePoint { t, y, u });
    }
    Cell {
        plant: "software-queue",
        controller: name,
        metrics: analyze(&trace, 2.0, 0.0),
    }
}

/// Runs the cross product.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e08",
        tier,
        "E8: PID vs fuzzy vs threshold on linear and software plants",
        exact(&[
            "plant",
            "controller",
            "overshoot%",
            "settling(s)",
            "ITAE",
            "ss-error",
        ]),
    );
    for cell in [linear_cell, queue_cell] {
        for (name, make) in controllers() {
            let c = cell(name, make.as_ref());
            table.row(vec![
                c.plant.to_owned(),
                c.controller.to_owned(),
                f2(c.metrics.overshoot_pct),
                f2(c.metrics.settling_time),
                f2(c.metrics.itae),
                f2(c.metrics.steady_state_error),
            ]);
        }
    }
    let mut pid = PidController::new(2.0, 0.8, 0.1);
    let mut fuzzy = FuzzyController::standard(20.0, 60.0, 30.0);
    let mut e = 0.0_f64;
    let mut error = move || {
        e += 0.1;
        e.sin() * 10.0
    };
    table.note_ns_per_call("pid update ns", 1_000_000, || pid.update(error(), 0.1));
    table.note_ns_per_call("fuzzy update ns", 1_000_000, || fuzzy.update(error(), 0.1));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(cells: &[Cell], controller: &str) -> ResponseMetrics {
        cells
            .iter()
            .find(|c| c.controller == controller)
            .unwrap()
            .metrics
    }

    #[test]
    fn pid_excels_on_the_linear_plant() {
        let cells: Vec<Cell> = controllers()
            .iter()
            .map(|(n, m)| linear_cell(n, m.as_ref()))
            .collect();
        let pid = get(&cells, "pid");
        let thr = get(&cells, "threshold");
        assert!(
            pid.steady_state_error < 0.5,
            "pid sse {}",
            pid.steady_state_error
        );
        assert!(pid.itae < thr.itae, "pid beats bang-bang on ITAE");
    }

    #[test]
    fn fuzzy_handles_the_software_queue_better_than_pid_tuning() {
        let cells: Vec<Cell> = controllers()
            .iter()
            .map(|(n, m)| queue_cell(n, m.as_ref()))
            .collect();
        let pid = get(&cells, "fuzzy");
        // The fuzzy controller keeps the queue near its setpoint.
        assert!(
            pid.steady_state_error < 2.0,
            "fuzzy ss {}",
            pid.steady_state_error
        );
    }
}
