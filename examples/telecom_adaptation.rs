//! The paper's introductory scenario: wireless multimedia sessions during
//! rush hour. Instead of "dropping calls [or] rejecting packets
//! arbitrarily with no care about the rendering", a feedback controller
//! walks the codec ladder to keep the serving node's backlog inside its
//! QoS contract.
//!
//! Three policies are compared on an identical, deterministic rush-hour
//! trace: no adaptation (fixed 1080p), a threshold controller, and the
//! fuzzy (Mamdani) controller.
//!
//! Run with: `cargo run --example telecom_adaptation`

use aas_control::control_loop::{Actuation, ControlLoop, Direction};
use aas_control::fuzzy::FuzzyController;
use aas_control::qos::{ComplianceTracker, QosContract};
use aas_control::threshold::ThresholdController;
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::message::{Message, Value};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use aas_sim::trace::ResourceTrace;
use aas_telecom::load::{LoadEvent, LoadGenerator};
use aas_telecom::services::register_telecom_components;

const HORIZON_SECS: u64 = 300;
const CONTROL_PERIOD_MS: u64 = 250;
const BACKLOG_TARGET_MS: f64 = 40.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Fixed,
    Threshold,
    Fuzzy,
}

struct Outcome {
    policy: &'static str,
    frames: i64,
    mean_quality: f64,
    violation_pct: f64,
    worst_backlog_ms: f64,
    level_switches: u64,
}

fn build_runtime() -> Runtime {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    // One edge node (the wireless cell, CPU-constrained) and a core node.
    let mut topo = Topology::new();
    let edge = topo.add_node(aas_sim::node::NodeSpec::new("edge", 250.0));
    let core = topo.add_node(aas_sim::node::NodeSpec::new("core", 500.0));
    topo.add_link(aas_sim::link::LinkSpec::new(
        edge,
        core,
        SimDuration::from_millis(5),
        2e6,
    ));
    let mut rt = Runtime::new(topo, 77, registry);

    let mut cfg = Configuration::new();
    cfg.component("source", ComponentDecl::new("MediaSource", 1, NodeId(0)));
    cfg.component("coder", ComponentDecl::new("Transcoder", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("extract"));
    cfg.connector(ConnectorSpec::direct("transfer"));
    cfg.bind(BindingDecl::new("source", "out", "extract", "coder", "in"));
    cfg.bind(BindingDecl::new("coder", "out", "transfer", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt
}

fn rush_hour_events() -> Vec<(SimTime, LoadEvent)> {
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
    generator.generate(SimTime::from_secs(HORIZON_SECS))
}

fn run(policy: Policy) -> Outcome {
    let mut rt = build_runtime();
    rt.inject("source", Message::event("init", Value::Null))
        .expect("init");
    // Pre-schedule the identical session workload.
    for (at, ev) in rush_hour_events() {
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

    // The control loop drives the codec *level* (0..=4) from the edge
    // node's backlog. More level -> more load -> more backlog, so the
    // loop is reverse-acting.
    let mut control = match policy {
        Policy::Fixed => None,
        Policy::Threshold => Some(ControlLoop::new(
            Box::new(ThresholdController::new(15.0, 4.0)),
            BACKLOG_TARGET_MS,
            Direction::Reverse,
            Actuation::Incremental { min: 0.0, max: 4.0 },
        )),
        Policy::Fuzzy => Some(ControlLoop::new(
            Box::new(FuzzyController::standard(80.0, 400.0, 12.0)),
            BACKLOG_TARGET_MS,
            Direction::Reverse,
            Actuation::Incremental { min: 0.0, max: 4.0 },
        )),
    };
    // The actuator is "levels shed": 0 = full 1080p, 4 = audio-only.
    let mut tracker =
        ComplianceTracker::new(QosContract::upper("backlog_ms", BACKLOG_TARGET_MS * 2.0));
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

    // Collect delivered-quality statistics from the sink.
    rt.inject("sink", Message::request("stats", Value::Null))
        .expect("stats");
    rt.run_for(SimDuration::from_secs(30));
    let stats = rt
        .take_outbox()
        .into_iter()
        .map(|(_, m)| m.value)
        .next_back()
        .unwrap_or(Value::Null);

    Outcome {
        policy: match policy {
            Policy::Fixed => "fixed-1080p",
            Policy::Threshold => "threshold",
            Policy::Fuzzy => "fuzzy",
        },
        frames: stats.get("frames").and_then(Value::as_int).unwrap_or(0),
        mean_quality: stats
            .get("mean_quality")
            .and_then(Value::as_float)
            .unwrap_or(0.0),
        violation_pct: tracker.violation_fraction() * 100.0,
        worst_backlog_ms: tracker.worst_excess() + BACKLOG_TARGET_MS * 2.0,
        level_switches: switches,
    }
}

fn main() {
    println!(
        "rush-hour adaptation, {HORIZON_SECS}s horizon, backlog contract <= {:.0}ms\n",
        BACKLOG_TARGET_MS * 2.0
    );
    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>14} {:>9}",
        "policy", "frames", "quality", "violation%", "worst-backlog", "switches"
    );
    let outcomes = [Policy::Fixed, Policy::Threshold, Policy::Fuzzy].map(run);
    for o in &outcomes {
        println!(
            "{:<14} {:>8} {:>10.3} {:>11.1}% {:>12.0}ms {:>9}",
            o.policy,
            o.frames,
            o.mean_quality,
            o.violation_pct,
            o.worst_backlog_ms,
            o.level_switches
        );
    }
    println!(
        "\nAdaptive policies trade delivered quality for contract compliance\n\
         during the surge — the paper's \"master the adaptation instead of\n\
         dropping calls\" scenario."
    );
    let [fixed, controlled @ ..] = &outcomes;
    for o in controlled {
        assert!(
            o.violation_pct < fixed.violation_pct,
            "{} violates the contract no less than {}",
            o.policy,
            fixed.policy
        );
    }
}
