//! End-to-end integration: ADL source → validation → compilation →
//! deployment → live traffic → reconfiguration → introspection.

use aas_adl::deploy::{build_raml, compile};
use aas_adl::parser::parse_system;
use aas_adl::validate::validate;
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;

const PIPELINE: &str = r#"
system Pipeline {
    node a { capacity = 500.0; }
    node b { capacity = 500.0; }
    node c { capacity = 500.0; }
    link a -- b { latency_ms = 2.0; bandwidth = 1e7; }
    link b -- c { latency_ms = 2.0; bandwidth = 1e7; }
    link a -- c { latency_ms = 10.0; bandwidth = 1e7; }

    component source : MediaSource v1 on a { level = 1; }
    component coder  : Transcoder  v1 on b
    component sink   : MediaSink   v1 on c

    connector stage1 { policy direct; aspect sequence_check; }
    connector stage2 { policy direct; aspect metering; }

    bind source.out -> stage1 -> coder.in;
    bind coder.out  -> stage2 -> sink.in;

    constraint no_sequence_anomalies(sink);
}
"#;

fn deployed_runtime() -> Runtime {
    let sys = parse_system(PIPELINE).expect("parse");
    assert!(validate(&sys).is_empty(), "{:?}", validate(&sys));
    let deployment = compile(&sys).expect("compile");
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let mut rt = Runtime::new(deployment.topology, 31, registry);
    rt.deploy(&deployment.configuration).expect("deploy");
    let raml = build_raml(
        &sys,
        &deployment.node_ids,
        SimDuration::from_millis(250),
        SimDuration::from_secs(2),
    )
    .expect("build raml");
    rt.install_raml(raml);
    rt
}

fn start_streaming(rt: &mut Runtime, sessions: u64) {
    rt.inject("source", Message::event("init", Value::Null))
        .unwrap();
    for _ in 0..sessions {
        rt.inject("source", Message::event("session_start", Value::Null))
            .unwrap();
    }
}

#[test]
fn pipeline_streams_frames_end_to_end() {
    let mut rt = deployed_runtime();
    start_streaming(&mut rt, 2);
    rt.run_until(SimTime::from_secs(10));
    let snap = rt.observe();
    let sink = snap.component("sink").unwrap();
    // 2 sessions at 25 fps (level 1 = 240p) for ~10 s ≈ 500 frames.
    assert!(sink.processed > 400, "processed {}", sink.processed);
    assert_eq!(sink.seq_anomalies, 0);
    assert!(snap.connector("stage2").unwrap().mean_metered_latency_ms > 0.0);
    assert_eq!(snap.connector("stage1").unwrap().seq_anomalies, 0);
}

/// A sequence-checking connector put in mid-stream joins a flow whose
/// counter is already running: it takes the first number it sees as the
/// flow's start. A fresh check that expected 0 instead reported every
/// frame sent before the swap as missing — 49 after two seconds of one
/// session — while the sink saw every frame in order.
#[test]
fn a_swapped_sequence_check_reports_no_false_gap() {
    let mut rt = deployed_runtime();
    start_streaming(&mut rt, 1);
    rt.run_until(SimTime::from_secs(2));
    let stage1 = rt.observe().connector("stage1").unwrap().clone();
    assert!(stage1.mediated >= 40, "mediated {}", stage1.mediated);
    assert_eq!(stage1.seq_anomalies, 0);

    let spec = ConnectorSpec::direct("stage1").with_aspect(ConnectorAspect::SequenceCheck);
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapConnector {
        name: "stage1".into(),
        spec,
    }));
    assert!(rt.reports().last().unwrap().success);
    rt.run_until(SimTime::from_secs(4));

    let snap = rt.observe();
    let swapped = snap.connector("stage1").unwrap();
    assert!(swapped.mediated >= 40, "mediated {}", swapped.mediated);
    assert_eq!(swapped.seq_anomalies, 0, "no frame was lost");
    assert_eq!(snap.component("sink").unwrap().seq_anomalies, 0);
}

#[test]
fn mid_stream_migration_preserves_every_frame() {
    let mut rt = deployed_runtime();
    start_streaming(&mut rt, 2);
    rt.run_until(SimTime::from_secs(5));
    let before = rt.observe().component("sink").unwrap().processed;
    assert!(before > 0);

    // Move the middle stage from b to a while frames are in flight.
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "coder".into(),
        to: aas_sim::node::NodeId(0),
    }));
    rt.run_until(SimTime::from_secs(10));

    let report = rt.reports().last().unwrap();
    assert!(report.success, "{:?}", report.failure);
    assert!(report.max_blackout() > SimDuration::ZERO);
    let snap = rt.observe();
    let sink = snap.component("sink").unwrap();
    assert!(sink.processed > before, "stream continued");
    assert_eq!(sink.seq_anomalies, 0, "no frame lost or duplicated");
    assert_eq!(
        rt.node_of("coder"),
        Some(aas_sim::node::NodeId(0)),
        "coder moved"
    );
    // RAML saw no constraint violations either.
    assert!(rt.raml().unwrap().violations().is_empty());
}

#[test]
fn swap_transcoder_mid_stream_keeps_counters() {
    let mut rt = deployed_runtime();
    start_streaming(&mut rt, 1);
    rt.run_until(SimTime::from_secs(5));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "coder".into(),
        type_name: "Transcoder".into(),
        version: 1,
        transfer: StateTransfer::Snapshot,
    }));
    rt.run_until(SimTime::from_secs(10));
    assert!(rt.reports().last().unwrap().success);
    assert!(rt.reports().last().unwrap().state_bytes_transferred > 0);
    let snap = rt.observe();
    assert_eq!(snap.component("sink").unwrap().seq_anomalies, 0);
}

#[test]
fn structural_change_adds_second_sink_via_broadcast() {
    let mut rt = deployed_runtime();
    start_streaming(&mut rt, 1);
    rt.run_until(SimTime::from_secs(2));

    // Structural reconfiguration: add a mirror sink, rebind the delivery
    // connector to broadcast to both.
    let plan: ReconfigPlan = vec![
        ReconfigAction::AddComponent {
            name: "mirror".into(),
            decl: aas_core::config::ComponentDecl::new("MediaSink", 1, aas_sim::node::NodeId(0)),
        },
        ReconfigAction::SwapConnector {
            name: "stage2".into(),
            spec: aas_core::connector::ConnectorSpec::direct("stage2")
                .with_policy(aas_core::connector::RoutingPolicy::Broadcast),
        },
        ReconfigAction::Unbind {
            from: ("coder".into(), "out".into()),
        },
        ReconfigAction::Bind(
            aas_core::config::BindingDecl::new("coder", "out", "stage2", "sink", "in")
                .also_to("mirror", "in"),
        ),
    ]
    .into_iter()
    .collect();
    rt.request_reconfig(plan);
    rt.run_until(SimTime::from_secs(10));

    assert!(rt.reports().last().unwrap().success);
    let snap = rt.observe();
    let sink = snap.component("sink").unwrap().processed;
    let mirror = snap.component("mirror").unwrap().processed;
    assert!(mirror > 0, "mirror received frames after the rebind");
    assert!(
        sink > mirror,
        "original sink saw the pre-rebind traffic too"
    );
    assert_eq!(snap.component("mirror").unwrap().seq_anomalies, 0);
}

#[test]
fn configuration_diff_drives_runtime_evolution() {
    // Build two configurations, diff them, and apply the plan live.
    let sys = parse_system(PIPELINE).unwrap();
    let deployment = compile(&sys).unwrap();
    let original = deployment.configuration;

    let mut target = original.clone();
    // Move the coder and bump the sink to a different node via the decl.
    target.component(
        "coder",
        aas_core::config::ComponentDecl::new("Transcoder", 1, aas_sim::node::NodeId(0)),
    );
    let plan = original.diff(&target);
    assert_eq!(plan.len(), 1);
    assert_eq!(plan.actions()[0].kind(), "migrate");

    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let mut rt = Runtime::new(compile(&sys).unwrap().topology, 31, registry);
    rt.deploy(&original).unwrap();
    start_streaming(&mut rt, 1);
    rt.run_until(SimTime::from_secs(2));
    rt.request_reconfig(plan);
    rt.run_until(SimTime::from_secs(6));
    assert!(rt.reports().last().unwrap().success);
    assert_eq!(rt.node_of("coder"), Some(aas_sim::node::NodeId(0)));
}
