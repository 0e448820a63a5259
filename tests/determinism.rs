//! Reproducibility: identical seeds produce bit-identical runs across the
//! full stack (workload generation, runtime, reconfiguration, metrics).

use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_obs::export;
use aas_sim::fault::FaultProcess;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use aas_sim::trace::ResourceTrace;
use aas_telecom::load::LoadGenerator;
use aas_telecom::services::register_telecom_components;

fn fingerprint(seed: u64) -> String {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let topo = Topology::clique(3, 800.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, registry);
    let mut cfg = Configuration::new();
    cfg.component("source", ComponentDecl::new("MediaSource", 1, NodeId(0)));
    cfg.component("coder", ComponentDecl::new("Transcoder", 1, NodeId(1)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("s1"));
    cfg.connector(ConnectorSpec::direct("s2"));
    cfg.bind(BindingDecl::new("source", "out", "s1", "coder", "in"));
    cfg.bind(BindingDecl::new("coder", "out", "s2", "sink", "in"));
    rt.deploy(&cfg).unwrap();

    // Stochastic workload from the same seed family.
    let mut generator = LoadGenerator::new(
        ResourceTrace::noise(0.3, 0.2, SimDuration::from_secs(5), seed),
        SimDuration::from_secs(20),
        SimRng::seed_from(seed).split("wl"),
    );
    rt.inject("source", Message::event("init", Value::Null))
        .unwrap();
    for (at, ev) in generator.generate(SimTime::from_secs(60)) {
        let op = match ev {
            aas_telecom::load::LoadEvent::SessionStart(_) => "session_start",
            aas_telecom::load::LoadEvent::SessionEnd(_) => "session_end",
        };
        rt.inject_after(
            at.saturating_since(SimTime::ZERO),
            "source",
            Message::event(op, Value::Null),
        )
        .unwrap();
    }
    // A reconfiguration mid-run for good measure.
    rt.run_until(SimTime::from_secs(20));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "coder".into(),
        to: NodeId(0),
    }));
    rt.run_until(SimTime::from_secs(60));

    let snap = rt.observe();
    let mut out = String::new();
    for c in &snap.components {
        out.push_str(&format!(
            "{}:{}:{}:{:.6}:{:.6};",
            c.name, c.processed, c.errors, c.mean_latency_ms, c.p99_latency_ms
        ));
    }
    for n in &snap.nodes {
        out.push_str(&format!("{}:{:.9};", n.id, n.utilization));
    }
    out.push_str(&format!(
        "delivered={} dropped={} reports={}",
        snap.delivered,
        snap.dropped,
        rt.reports().len()
    ));
    out
}

/// Runs a full self-healing campaign — probabilistic fault storm, heartbeat
/// detection, failover repair — and returns the byte-exact audit log.
fn fault_campaign_audit(seed: u64) -> String {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let topo = Topology::clique(3, 1200.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, registry);
    let mut cfg = Configuration::new();
    cfg.component("coder", ComponentDecl::new("Transcoder", 1, NodeId(1)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("coder", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).unwrap();
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    let storm = FaultProcess::new()
        .crash_node(NodeId(1), 5.0, 1.5)
        .crash_node(NodeId(2), 8.0, 2.0)
        .generate(SimTime::from_secs(30), &mut SimRng::seed_from(seed));
    rt.inject_faults(storm);
    for i in 0..1500u64 {
        rt.inject_after(
            SimDuration::from_millis(i * 20),
            "coder",
            Message::event("frame", Value::map([("bytes", Value::Int(300))])),
        )
        .unwrap();
    }
    rt.run_until(SimTime::from_secs(40));
    export::audit_jsonl(rt.obs().audit.entries())
}

#[test]
fn same_seed_same_universe() {
    assert_eq!(fingerprint(1234), fingerprint(1234));
}

/// Identical seeds reproduce the *entire* detect→plan→repair history:
/// the exported audit log — fault timestamps, suspicion instants, repair
/// plan ids, measured MTTR strings — is byte-identical across runs.
#[test]
fn same_seed_same_fault_campaign_audit_log() {
    let a = fault_campaign_audit(42);
    let b = fault_campaign_audit(42);
    assert!(!a.is_empty());
    assert!(a.contains("failure_suspected"), "storm never detected");
    assert!(a.contains("repair_completed"), "storm never repaired");
    assert_eq!(a, b);
    assert_ne!(a, fault_campaign_audit(43));
}

/// The E12 experiment table — availability, MTTD/MTTR means, crash-loss
/// counts across all three repair policies — is identical in every exact
/// value when regenerated (its timed primitives are host-clock readings
/// and are not compared).
#[test]
fn e12_table_is_reproducible_byte_for_byte() {
    let a = aas_bench::e12::run(aas_bench::Tier::Default);
    let b = aas_bench::e12::run(aas_bench::Tier::Default);
    assert!(a.to_string().contains("failover"));
    assert_eq!(a.rows, b.rows, "every E12 column is exact");
    assert_eq!(b.exact_drift(&a.to_json()), Vec::<String>::new());
}

#[test]
fn different_seed_different_universe() {
    assert_ne!(fingerprint(1), fingerprint(2));
}

#[test]
fn three_way_agreement() {
    let a = fingerprint(777);
    let b = fingerprint(777);
    let c = fingerprint(777);
    assert_eq!(a, b);
    assert_eq!(b, c);
}
