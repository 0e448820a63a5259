//! Cross-crate integration of the adaptability mechanisms: filters,
//! meta-object chains and adaptive interfaces wrapping live components
//! inside a running system, connector interchange under traffic, and the
//! availability contrast with reconfiguration.

use aas_adapt::adaptive_iface::AdaptiveComponent;
use aas_adapt::filters::{FilterMode, FilterPipeline, FilteredComponent, RejectFilter};
use aas_adapt::interaction::{ChainedComponent, MetaChain, MetaObject, WrapperProp};
use aas_adapt::mechanism::MechanismKind;
use aas_core::component::EchoComponent;
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::message::{Message, Name, Value};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn registry_with_wrapped_components() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    // A filtered echo: rejects `admin_*` operations at the message level.
    r.register("GuardedEcho", 1, |_| {
        let mut pipeline = FilterPipeline::new(FilterMode::Runtime);
        pipeline
            .attach(Box::new(RejectFilter::new(["admin_*"])))
            .expect("attach");
        Box::new(FilteredComponent::new(
            Box::new(EchoComponent::default()),
            pipeline,
        ))
    });
    // An adaptive-interface echo: `ping` is an alias for `echo`.
    r.register("AliasedEcho", 1, |_| {
        let mut ac = AdaptiveComponent::new(Box::new(EchoComponent::default()));
        ac.rewrite_op("ping", "echo");
        Box::new(ac)
    });
    r
}

fn runtime() -> Runtime {
    let topo = Topology::clique(2, 1000.0, SimDuration::from_millis(1), 1e7);
    Runtime::new(topo, 3, registry_with_wrapped_components())
}

#[test]
fn filtered_component_guards_inside_live_runtime() {
    let mut rt = runtime();
    let mut cfg = Configuration::new();
    cfg.component("guard", ComponentDecl::new("GuardedEcho", 1, NodeId(0)));
    rt.deploy(&cfg).unwrap();

    rt.inject("guard", Message::request("echo", Value::from(1)))
        .unwrap();
    rt.inject("guard", Message::request("admin_wipe", Value::Null))
        .unwrap();
    rt.inject("guard", Message::request("echo", Value::from(2)))
        .unwrap();
    rt.run_until(SimTime::from_secs(1));

    let replies = rt.take_outbox();
    assert_eq!(replies.len(), 2, "admin_wipe absorbed by the filter");
    // The filter absorbed the message without a handler error.
    assert_eq!(rt.metrics().handler_errors, 0);
}

#[test]
fn adaptive_interface_alias_works_in_runtime() {
    let mut rt = runtime();
    let mut cfg = Configuration::new();
    cfg.component("alias", ComponentDecl::new("AliasedEcho", 1, NodeId(0)));
    rt.deploy(&cfg).unwrap();

    rt.inject("alias", Message::request("ping", Value::from("pong?")))
        .unwrap();
    rt.run_until(SimTime::from_secs(1));
    let replies = rt.take_outbox();
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].1.value, Value::from("pong?"));
}

#[test]
fn connector_interchange_keeps_service_fully_available() {
    let mut rt = runtime();
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Transcoder", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).unwrap();

    // A steady stream with connector interchanges every 100 ms.
    for i in 0..200u64 {
        rt.inject_after(
            SimDuration::from_millis(i * 10),
            "fwd",
            Message::event("frame", Value::map([("bytes", Value::Int(100))])),
        )
        .unwrap();
    }
    for k in 0..20u64 {
        rt.run_until(SimTime::from_millis((k + 1) * 100));
        let spec = if k % 2 == 0 {
            ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Metering)
        } else {
            ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Compression {
                ratio: 0.5,
                cost: 0.05,
            })
        };
        rt.adapt_connector("wire", spec).unwrap();
    }
    rt.run_until(SimTime::from_secs(10));

    let snap = rt.observe();
    let sink = snap.component("sink").unwrap();
    assert_eq!(sink.processed, 200, "20 interchanges, zero disruption");
    assert_eq!(sink.seq_anomalies, 0);
    assert!(
        rt.reports().is_empty(),
        "no reconfiguration was ever needed"
    );
}

#[test]
fn mechanism_catalogue_matches_measured_tradeoff() {
    // The cost model in aas-adapt claims adaptation switches cheaply and
    // reconfiguration switches expensively. Confirm the runtime agrees:
    // measure the virtual-time service disruption of both.
    let mut rt = runtime();
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Transcoder", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).unwrap();

    for i in 0..100u64 {
        rt.inject_after(
            SimDuration::from_millis(i * 10),
            "fwd",
            Message::event("frame", Value::map([("bytes", Value::Int(100))])),
        )
        .unwrap();
    }

    // Lightweight path: connector interchange (no blackout).
    rt.run_until(SimTime::from_millis(300));
    rt.adapt_connector(
        "wire",
        ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Metering),
    )
    .unwrap();

    // Heavyweight path: strong swap (measurable blackout).
    rt.run_until(SimTime::from_millis(600));
    rt.request_reconfig(aas_core::reconfig::ReconfigPlan::single(
        aas_core::reconfig::ReconfigAction::SwapImplementation {
            name: "fwd".into(),
            type_name: "Transcoder".into(),
            version: 1,
            transfer: aas_core::reconfig::StateTransfer::Snapshot,
        },
    ));
    rt.run_until(SimTime::from_secs(10));

    let report = rt.reports().last().unwrap();
    assert!(report.success);
    assert!(
        report.max_blackout() > SimDuration::ZERO,
        "reconfiguration pays a blackout"
    );

    // And the static catalogue encodes the same direction.
    let reconfig = MechanismKind::Reconfiguration.profile();
    let connector = MechanismKind::ConnectorInterchange.profile();
    assert!(connector.switch_cost < reconfig.switch_cost);
    assert!(connector.availability_preserving);
    assert!(!reconfig.availability_preserving);
}

#[test]
fn runtime_filter_attach_detach_with_traffic() {
    // Attach a throttle to a live wrapped component between bursts.
    let mut rt = runtime();
    let mut cfg = Configuration::new();
    cfg.component("guard", ComponentDecl::new("GuardedEcho", 1, NodeId(0)));
    rt.deploy(&cfg).unwrap();

    for _ in 0..5 {
        rt.inject("guard", Message::request("echo", Value::Null))
            .unwrap();
    }
    rt.run_until(SimTime::from_secs(1));
    assert_eq!(rt.take_outbox().len(), 5);

    // A runtime-mode pipeline allows live policy changes: swap the whole
    // implementation for one whose filter also rejects `echo` (weak swap —
    // the wrapper's filters are policy, not state).
    let mut registry_update = aas_core::reconfig::ReconfigPlan::new();
    registry_update.push(aas_core::reconfig::ReconfigAction::SwapImplementation {
        name: "guard".into(),
        type_name: "GuardedEcho".into(),
        version: 1,
        transfer: aas_core::reconfig::StateTransfer::None,
    });
    rt.request_reconfig(registry_update);
    rt.run_until(SimTime::from_secs(2));
    assert!(rt.reports().last().unwrap().success);
}

/// An echo behind a meta-object chain, ordered by priority: a conditional
/// observer counts `ping` requests into `pings`, a modificatory wrapper
/// renames `ping` to `echo`, another stamps the payload, and a last
/// non-modificatory observer tries to mark it.
fn register_chained_echo(registry: &mut ImplementationRegistry, pings: &Arc<AtomicU64>) {
    let pings = Arc::clone(pings);
    registry.register("ChainedEcho", 1, move |_| {
        let pings = Arc::clone(&pings);
        let mut chain = MetaChain::new();
        chain
            .compose(
                MetaObject::new("count-pings", 0, move |_| {
                    pings.fetch_add(1, Ordering::Relaxed);
                })
                .with_condition(|m| m.op == "ping"),
            )
            .expect("an empty chain takes any meta-object");
        chain
            .compose(
                MetaObject::new("rename", 1, |m| {
                    if m.op == "ping" {
                        m.op = Name::from("echo");
                    }
                })
                .with_prop(WrapperProp::Modificatory),
            )
            .expect("distinct name");
        chain
            .compose(
                MetaObject::new("stamp", 2, |m| m.value.set("stamped", Value::Bool(true)))
                    .with_prop(WrapperProp::Modificatory),
            )
            .expect("distinct name");
        chain
            .compose(MetaObject::new("observer", 3, |m| {
                m.value.set("observed", Value::Bool(true));
            }))
            .expect("distinct name");
        Box::new(ChainedComponent::new(
            Box::new(EchoComponent::default()),
            chain,
        ))
    });
}

#[test]
fn chained_component_adapts_live_traffic_without_quiescence() {
    let pings = Arc::new(AtomicU64::new(0));
    let mut registry = registry_with_wrapped_components();
    register_chained_echo(&mut registry, &pings);
    let topo = Topology::clique(2, 1000.0, SimDuration::from_millis(1), 1e7);
    let mut rt = Runtime::new(topo, 3, registry);
    let mut cfg = Configuration::new();
    cfg.component("chained", ComponentDecl::new("ChainedEcho", 1, NodeId(0)));
    rt.deploy(&cfg).unwrap();

    let ops = ["echo", "ping", "echo", "ping", "ping", "echo"];
    for (i, op) in ops.iter().enumerate() {
        let payload = Value::map([("seq", Value::Int(i as i64))]);
        rt.inject_after(
            SimDuration::from_millis(10 * i as u64),
            "chained",
            Message::request(*op, payload),
        )
        .unwrap();
    }
    rt.run_until(SimTime::from_secs(1));

    let replies = rt.take_outbox();
    assert_eq!(replies.len(), ops.len(), "every request is answered");
    assert_eq!(rt.metrics().handler_errors, 0, "every `ping` became `echo`");
    for (i, (_, reply)) in replies.iter().enumerate() {
        assert_eq!(reply.value.get("seq"), Some(&Value::Int(i as i64)));
        assert_eq!(
            reply.value.get("stamped"),
            Some(&Value::Bool(true)),
            "the modificatory wrapper's field reaches the reply"
        );
        assert_eq!(
            reply.value.get("observed"),
            None,
            "the observer's edit is discarded"
        );
    }
    let expected_pings = ops.iter().filter(|op| **op == "ping").count() as u64;
    assert_eq!(
        pings.load(Ordering::Relaxed),
        expected_pings,
        "the conditional wrapper runs on `ping` only"
    );

    let kernel = rt.kernel_counters();
    assert_eq!(kernel.get("held"), 0, "no channel was blocked");
    assert_eq!(kernel.get("released"), 0);
    assert!(rt.reports().is_empty(), "no reconfiguration took place");
}
