//! Failure injection across crates: node crashes and link outages hitting
//! live pipelines and in-progress reconfigurations.

use aas_core::component::{EchoComponent, Lifecycle};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::link::LinkId;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    r.register("Echo", 1, |_| Box::new(EchoComponent::default()));
    r
}

fn two_stage_runtime() -> Runtime {
    // a --- b --- c with a backup a --- c path.
    let mut topo = Topology::new();
    let a = topo.add_node(aas_sim::node::NodeSpec::new("a", 1000.0));
    let b = topo.add_node(aas_sim::node::NodeSpec::new("b", 1000.0));
    let c = topo.add_node(aas_sim::node::NodeSpec::new("c", 1000.0));
    topo.add_link(aas_sim::link::LinkSpec::new(
        a,
        b,
        SimDuration::from_millis(2),
        1e7,
    ));
    topo.add_link(aas_sim::link::LinkSpec::new(
        b,
        c,
        SimDuration::from_millis(2),
        1e7,
    ));
    topo.add_link(aas_sim::link::LinkSpec::new(
        a,
        c,
        SimDuration::from_millis(20),
        1e7,
    ));
    let mut rt = Runtime::new(topo, 17, registry());
    let mut cfg = Configuration::new();
    cfg.component("coder", ComponentDecl::new("Transcoder", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("coder", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt
}

fn frame() -> Message {
    Message::event(
        "frame",
        Value::map([("bytes", Value::Int(200)), ("cost", Value::Float(0.05))]),
    )
}

/// Every schedule in this file must actually fire. A time or id typo
/// that compiles to zero applied faults turns these tests into vacuous
/// happy-path runs — the assertions about loss and recovery would pass
/// without any failure ever being injected.
fn assert_faults_fired(rt: &Runtime, at_least: u64) {
    let fired = rt.kernel_counters().get("faults_applied");
    assert!(
        fired >= at_least,
        "schedule silently no-opped: {fired} faults fired, wanted at least {at_least}"
    );
}

#[test]
fn link_outage_reroutes_traffic() {
    let mut rt = two_stage_runtime();
    // Kill the cheap a--b--c path's second hop mid-run; traffic falls back
    // to the 20 ms direct link; nothing is lost (routing is per-send).
    let mut faults = FaultSchedule::new();
    faults.link_outage(
        LinkId(1),
        SimTime::from_millis(500),
        SimTime::from_millis(1500),
    );
    rt.inject_faults(faults);

    for i in 0..100u64 {
        rt.inject_after(SimDuration::from_millis(i * 20), "coder", frame())
            .unwrap();
    }
    rt.run_until(SimTime::from_secs(10));

    let snap = rt.observe();
    let sink = snap.component("sink").unwrap();
    assert_eq!(
        sink.processed, 100,
        "all frames arrived via the backup path"
    );
    assert_eq!(sink.seq_anomalies, 0);
    // Latency during the outage was higher (the long way around).
    assert!(sink.p99_latency_ms > 15.0, "p99 {}", sink.p99_latency_ms);
    assert!(sink.mean_latency_ms > 5.0, "mean {}", sink.mean_latency_ms);
    assert_faults_fired(&rt, 2); // LinkDown + LinkUp
}

#[test]
fn node_crash_drops_frames_and_recovery_resumes() {
    let mut rt = two_stage_runtime();
    let mut faults = FaultSchedule::new();
    faults.node_outage(NodeId(2), SimTime::from_secs(1), SimTime::from_secs(2));
    rt.inject_faults(faults);

    for i in 0..150u64 {
        rt.inject_after(SimDuration::from_millis(i * 20), "coder", frame())
            .unwrap();
    }
    rt.run_until(SimTime::from_secs(10));

    let snap = rt.observe();
    let sink = snap.component("sink").unwrap();
    assert!(sink.processed < 150, "frames to a dead node are lost");
    assert!(sink.processed > 90, "frames resumed after recovery");
    assert!(snap.dropped > 0);
    assert_eq!(snap.dropped, rt.metrics().dropped, "each drop counted once");
    // The loss is visible as sequence gaps — exactly what the paper's
    // channel-preservation machinery is meant to surface.
    assert!(sink.seq_anomalies > 0);
    assert_faults_fired(&rt, 2); // NodeCrash + NodeRecover
}

#[test]
fn migration_to_node_that_dies_mid_plan_aborts_cleanly() {
    let mut rt = two_stage_runtime();
    // Crash the destination while the plan is queued behind drain work.
    let mut faults = FaultSchedule::new();
    faults.at(SimTime::from_millis(100), FaultKind::NodeCrash(NodeId(1)));
    rt.inject_faults(faults);

    for i in 0..50u64 {
        rt.inject_after(SimDuration::from_millis(i * 10), "coder", frame())
            .unwrap();
    }
    rt.run_until(SimTime::from_millis(150));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "coder".into(),
        to: NodeId(1),
    }));
    rt.run_until(SimTime::from_secs(10));

    let report = rt.reports().last().unwrap();
    assert!(!report.success, "migration to a dead node must fail");
    assert_eq!(rt.node_of("coder"), Some(NodeId(0)), "component stayed put");
    // Service continued after the abort: all frames still flowed.
    let snap = rt.observe();
    assert_eq!(snap.component("coder").unwrap().processed, 50);
    assert_eq!(snap.component("sink").unwrap().seq_anomalies, 0);
    assert_faults_fired(&rt, 1); // the destination's NodeCrash
}

#[test]
fn crashed_host_component_recovers_with_node() {
    let mut rt = two_stage_runtime();
    let mut faults = FaultSchedule::new();
    faults.node_outage(NodeId(0), SimTime::from_secs(1), SimTime::from_secs(3));
    rt.inject_faults(faults);

    // Frames delivered TO coder on node 0; during the outage they drop at
    // delivery, afterwards they flow again.
    for i in 0..80u64 {
        rt.inject_after(SimDuration::from_millis(i * 50), "coder", frame())
            .unwrap();
    }
    rt.run_until(SimTime::from_secs(10));
    let snap = rt.observe();
    let coder = snap.component("coder").unwrap();
    assert!(
        coder.processed >= 35 && coder.processed <= 45,
        "lost ~2s of 20/s traffic, got {}",
        coder.processed
    );
    assert!(snap.node(NodeId(0)).unwrap().up);
    assert_faults_fired(&rt, 2); // NodeCrash + NodeRecover
}

#[test]
fn heal_migrates_components_off_crashed_node() {
    let mut rt = two_stage_runtime();
    // Heal is the fault path: the detector on node 2 suspects the silent
    // node, and the failover policy migrates what it hosted to a survivor.
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(2),
    ));

    for i in 0..200u64 {
        rt.inject_after(SimDuration::from_millis(i * 20), "coder", frame())
            .unwrap();
    }
    // Node 0 (hosting `coder`) dies at t=1s and never comes back.
    let mut faults = FaultSchedule::new();
    faults.at(SimTime::from_secs(1), FaultKind::NodeCrash(NodeId(0)));
    rt.inject_faults(faults);
    rt.run_until(SimTime::from_secs(20));

    // One repair, and the coder was evacuated.
    assert_eq!(rt.metrics().mttr_ms.count(), 1);
    let new_home = rt.node_of("coder").unwrap();
    assert_ne!(new_home, NodeId(0), "coder evacuated");
    assert_eq!(rt.lifecycle("coder"), Some(Lifecycle::Active));
    let report = rt.reports().last().unwrap();
    assert!(report.success, "{:?}", report.failure);

    // Service resumed: most frames processed (some were lost in the crash
    // window before the evacuation finished).
    let snap = rt.observe();
    let coder = snap.component("coder").unwrap();
    assert!(coder.processed > 150, "resumed, got {}", coder.processed);
    assert!(!snap.node(NodeId(0)).unwrap().up);
    assert_faults_fired(&rt, 1); // the permanent NodeCrash
}
