//! E4 — feedback control keeps the QoS contract during rush hour.
//!
//! Paper claim (§3 / abstract): feedback-controlled systems "keep
//! compliant with the contracted quality of service" while the environment
//! fluctuates; the intro scenario asks adaptation to "master" the rush
//! hour rather than dropping service arbitrarily.
//!
//! Harness: identical rush-hour session workload against four policies —
//! no control, threshold (bang-bang), PID, fuzzy — each driving the codec
//! ladder from the serving node's backlog. Reported: contract violation
//! time, delivered quality, level switches.

use crate::common::experiment_registry;
use crate::table::{exact, f3, pct, Table, Tier};
use aas_control::control_loop::{Actuation, ControlLoop, Direction};
use aas_control::fuzzy::FuzzyController;
use aas_control::pid::PidController;
use aas_control::qos::{ComplianceTracker, QosContract};
use aas_control::threshold::ThresholdController;
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::message::{Message, Value};
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use aas_sim::trace::ResourceTrace;
use aas_telecom::load::{LoadEvent, LoadGenerator};

const HORIZON_SECS: u64 = 300;
const CONTROL_PERIOD_MS: u64 = 250;
const BACKLOG_TARGET_MS: f64 = 40.0;
const CONTRACT_LIMIT_MS: f64 = 80.0;

/// The evaluated policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No adaptation: fixed top quality.
    None,
    /// Bang-bang with hysteresis.
    Threshold,
    /// PID.
    Pid,
    /// Fuzzy (Mamdani).
    Fuzzy,
}

impl Policy {
    /// Stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::Threshold => "threshold",
            Policy::Pid => "pid",
            Policy::Fuzzy => "fuzzy",
        }
    }
}

/// One policy's outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Policy evaluated.
    pub policy: Policy,
    /// Frames delivered.
    pub frames: i64,
    /// Mean delivered quality.
    pub quality: f64,
    /// Fraction of time violating the backlog contract.
    pub violation: f64,
    /// Codec switches performed.
    pub switches: u64,
}

fn controller(policy: Policy) -> Option<ControlLoop> {
    let loop_for = |c: Box<dyn aas_control::Controller + Send>| {
        ControlLoop::new(
            c,
            BACKLOG_TARGET_MS,
            Direction::Reverse,
            Actuation::Incremental { min: 0.0, max: 4.0 },
        )
    };
    match policy {
        Policy::None => None,
        Policy::Threshold => Some(loop_for(Box::new(ThresholdController::new(15.0, 4.0)))),
        Policy::Pid => Some(loop_for(Box::new(
            PidController::new(0.05, 0.01, 0.002).with_output_limits(-16.0, 16.0),
        ))),
        Policy::Fuzzy => Some(loop_for(Box::new(FuzzyController::standard(
            80.0, 400.0, 12.0,
        )))),
    }
}

/// Runs one policy on the shared rush-hour workload.
#[must_use]
pub fn run_cell(policy: Policy) -> Cell {
    let mut topo = Topology::new();
    let edge = topo.add_node(aas_sim::node::NodeSpec::new("edge", 250.0));
    let core = topo.add_node(aas_sim::node::NodeSpec::new("core", 500.0));
    topo.add_link(aas_sim::link::LinkSpec::new(
        edge,
        core,
        SimDuration::from_millis(5),
        2e6,
    ));
    let mut rt = Runtime::new(topo, 77, experiment_registry());
    let mut cfg = Configuration::new();
    cfg.component("source", ComponentDecl::new("MediaSource", 1, NodeId(0)));
    cfg.component("coder", ComponentDecl::new("Transcoder", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("extract"));
    cfg.connector(ConnectorSpec::direct("transfer"));
    cfg.bind(BindingDecl::new("source", "out", "extract", "coder", "in"));
    cfg.bind(BindingDecl::new("coder", "out", "transfer", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");

    rt.inject("source", Message::event("init", Value::Null))
        .expect("init");
    let rate = ResourceTrace::rush_hour(
        0.05,
        0.4,
        SimTime::from_secs(100),
        SimTime::from_secs(200),
        SimDuration::from_secs(30),
    );
    let mut generator = LoadGenerator::new(
        rate,
        SimDuration::from_secs(40),
        SimRng::seed_from(42).split("load"),
    );
    for (at, ev) in generator.generate(SimTime::from_secs(HORIZON_SECS)) {
        let op = match ev {
            LoadEvent::SessionStart(_) => "session_start",
            LoadEvent::SessionEnd(_) => "session_end",
        };
        rt.inject_after(
            at.saturating_since(SimTime::ZERO),
            "source",
            Message::event(op, Value::Null),
        )
        .expect("schedule");
    }

    let mut control = controller(policy);
    let mut tracker = ComplianceTracker::new(QosContract::upper("backlog_ms", CONTRACT_LIMIT_MS));
    let mut current_level: i64 = 4;
    let mut switches = 0u64;
    let period = SimDuration::from_millis(CONTROL_PERIOD_MS);
    let horizon = SimTime::from_secs(HORIZON_SECS);
    let mut t = SimTime::ZERO;
    while t < horizon {
        t += period;
        rt.run_until(t);
        let backlog = rt.topology().node(NodeId(0)).backlog(rt.now()).as_micros() as f64 / 1e3;
        tracker.sample(rt.now(), backlog);
        if let Some(cl) = control.as_mut() {
            let shed = cl.tick(backlog, period.as_secs_f64());
            let level = (4.0 - shed).round().clamp(0.0, 4.0) as i64;
            if level != current_level {
                current_level = level;
                switches += 1;
                let _ = rt.inject("source", Message::event("set_level", Value::Int(level)));
            }
        }
    }

    rt.inject("sink", Message::request("stats", Value::Null))
        .expect("stats");
    rt.run_for(SimDuration::from_secs(30));
    let stats = rt
        .take_outbox()
        .into_iter()
        .map(|(_, m)| m.value)
        .next_back()
        .unwrap_or(Value::Null);

    Cell {
        policy,
        frames: stats.get("frames").and_then(Value::as_int).unwrap_or(0),
        quality: stats
            .get("mean_quality")
            .and_then(Value::as_float)
            .unwrap_or(0.0),
        violation: tracker.violation_fraction(),
        switches,
    }
}

/// Runs all policies.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e04",
        tier,
        "E4: QoS compliance under rush hour — controller comparison",
        exact(&["policy", "frames", "quality", "violation", "switches"]),
    );
    for policy in [Policy::None, Policy::Threshold, Policy::Pid, Policy::Fuzzy] {
        let c = run_cell(policy);
        table.row(vec![
            c.policy.name().to_owned(),
            c.frames.to_string(),
            f3(c.quality),
            pct(c.violation),
            c.switches.to_string(),
        ]);
    }
    let mut fuzzy = FuzzyController::standard(80.0, 400.0, 12.0);
    let mut e = 0.0;
    table.note_ns_per_call("fuzzy inference ns", 1_000_000, || {
        e += 1.0;
        aas_control::Controller::update(&mut fuzzy, e % 80.0 - 40.0, 0.25)
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_controller_beats_no_control() {
        let none = run_cell(Policy::None);
        let fuzzy = run_cell(Policy::Fuzzy);
        assert!(
            fuzzy.violation < none.violation * 0.7,
            "fuzzy {:.2} vs none {:.2}",
            fuzzy.violation,
            none.violation
        );
        assert!(fuzzy.frames > none.frames, "controlled system serves more");
        assert!(
            none.quality > fuzzy.quality,
            "uncontrolled keeps 1080p (for the few it serves)"
        );
    }
}
