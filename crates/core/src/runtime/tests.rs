use super::*;
use crate::component::{EchoComponent, StateSnapshot};
use crate::connector::{ConnectorAspect, RoutingPolicy};
use crate::error::ComponentError;
use crate::interface::{Interface, Signature};
use crate::message::Value;
use crate::raml::{Cmp, Constraint, Intercession, Metric, Raml, Rule, RuleMonitor, TemporalOp};

/// Counts `tick` messages and replies with the running count.
#[derive(Debug, Default)]
struct Counter {
    count: i64,
}

impl Component for Counter {
    fn type_name(&self) -> &str {
        "Counter"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("tick")];
        static IFACE: Interface = Interface::fixed("Counter", &OPS);
        &IFACE
    }
    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        match msg.op.as_str() {
            "tick" => {
                self.count += 1;
                ctx.reply(Value::from(self.count));
                Ok(())
            }
            _ => Err(ComponentError::UnsupportedOperation(msg.op)),
        }
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Counter", 1).with_field("count", Value::from(self.count))
    }
    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), crate::error::StateError> {
        self.count = snap.require("count")?.as_int().unwrap_or(0);
        Ok(())
    }
}

/// Counter v2: extends the interface with `reset` (backward compatible).
#[derive(Debug, Default)]
struct CounterV2 {
    count: i64,
}

impl Component for CounterV2 {
    fn type_name(&self) -> &str {
        "Counter"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 2] = [Signature::one_way("tick"), Signature::one_way("reset")];
        static IFACE: Interface = Interface::fixed("Counter", &OPS);
        &IFACE
    }
    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        match msg.op.as_str() {
            "tick" => {
                self.count += 1;
                ctx.reply(Value::from(self.count));
                Ok(())
            }
            "reset" => {
                self.count = 0;
                Ok(())
            }
            _ => Err(ComponentError::UnsupportedOperation(msg.op)),
        }
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Counter", 2).with_field("count", Value::from(self.count))
    }
    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), crate::error::StateError> {
        self.count = snap.require("count")?.as_int().unwrap_or(0);
        Ok(())
    }
}

/// A "counter" that dropped the `tick` operation: incompatible.
#[derive(Debug, Default)]
struct CounterBroken;

impl Component for CounterBroken {
    fn type_name(&self) -> &str {
        "Counter"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("other")];
        static IFACE: Interface = Interface::fixed("Counter", &OPS);
        &IFACE
    }
    fn on_message(&mut self, _: &mut CallCtx, _: Message) -> Result<(), ComponentError> {
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Counter", 9)
    }
    fn restore(&mut self, _: &StateSnapshot) -> Result<(), crate::error::StateError> {
        Ok(())
    }
}

/// Forwards every `tick` to its `out` port.
#[derive(Debug, Default)]
struct Forwarder;

impl Component for Forwarder {
    fn type_name(&self) -> &str {
        "Forwarder"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("tick")];
        static IFACE: Interface = Interface::fixed("Forwarder", &OPS);
        &IFACE
    }
    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        ctx.send("out", Message::event("tick", msg.value));
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Forwarder", 1)
    }
    fn restore(&mut self, _: &StateSnapshot) -> Result<(), crate::error::StateError> {
        Ok(())
    }
}

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    r.register("Counter", 1, |_| Box::new(Counter::default()));
    r.register("Counter", 2, |_| Box::new(CounterV2::default()));
    r.register("Counter", 9, |_| Box::new(CounterBroken));
    r.register("Forwarder", 1, |_| Box::new(Forwarder));
    r.register("Echo", 1, |_| Box::new(EchoComponent::default()));
    r
}

fn runtime(nodes: usize) -> Runtime {
    let topo = Topology::clique(nodes, 1000.0, SimDuration::from_millis(2), 1e7);
    Runtime::new(topo, 7, registry())
}

fn counter_runtime() -> Runtime {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(0)));
    rt.deploy(&cfg).unwrap();
    rt
}

fn tick(rt: &mut Runtime, n: usize) {
    for _ in 0..n {
        rt.inject("counter", Message::request("tick", Value::Null))
            .unwrap();
    }
}

fn last_count(rt: &mut Runtime) -> i64 {
    rt.take_outbox()
        .last()
        .and_then(|(_, m)| m.value.as_int())
        .expect("at least one reply")
}

#[test]
fn request_reply_roundtrip_with_rtt() {
    let mut rt = counter_runtime();
    tick(&mut rt, 3);
    rt.run_until(SimTime::from_secs(1));
    assert_eq!(last_count(&mut rt), 3);
    assert_eq!(rt.metrics().rtt.count(), 3);
    assert_eq!(rt.metrics().handler_errors, 0);
}

#[test]
fn strong_swap_preserves_state() {
    let mut rt = counter_runtime();
    tick(&mut rt, 5);
    rt.run_until(SimTime::from_secs(1));
    assert_eq!(last_count(&mut rt), 5);

    let plan = ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "counter".into(),
        type_name: "Counter".into(),
        version: 2,
        transfer: StateTransfer::Snapshot,
    });
    rt.request_reconfig(plan);
    rt.run_until(SimTime::from_secs(2));
    let report = rt.reports().last().unwrap();
    assert!(report.success, "{:?}", report.failure);
    assert!(report.state_bytes_transferred > 0);

    tick(&mut rt, 1);
    rt.run_until(SimTime::from_secs(3));
    assert_eq!(last_count(&mut rt), 6, "count continued from 5");
    assert_eq!(rt.lifecycle("counter"), Some(Lifecycle::Active));
}

#[test]
fn weak_swap_resets_state() {
    let mut rt = counter_runtime();
    tick(&mut rt, 5);
    rt.run_until(SimTime::from_secs(1));
    rt.take_outbox();

    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "counter".into(),
        type_name: "Counter".into(),
        version: 2,
        transfer: StateTransfer::None,
    }));
    rt.run_until(SimTime::from_secs(2));
    assert!(rt.reports().last().unwrap().success);

    tick(&mut rt, 1);
    rt.run_until(SimTime::from_secs(3));
    assert_eq!(last_count(&mut rt), 1, "fresh implementation starts at 0");
}

#[test]
fn incompatible_swap_fails_and_keeps_old_component() {
    let mut rt = counter_runtime();
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "counter".into(),
        type_name: "Counter".into(),
        version: 9,
        transfer: StateTransfer::Snapshot,
    }));
    rt.run_until(SimTime::from_secs(1));
    let report = rt.reports().last().unwrap();
    assert!(!report.success);
    assert!(report.failure.as_deref().unwrap().contains("tick"));
    // Old component still serves.
    tick(&mut rt, 1);
    rt.run_until(SimTime::from_secs(2));
    assert_eq!(last_count(&mut rt), 1);
    assert_eq!(rt.lifecycle("counter"), Some(Lifecycle::Active));
}

#[test]
fn migration_moves_component_without_message_loss() {
    let mut rt = counter_runtime();
    assert_eq!(rt.node_of("counter"), Some(NodeId(0)));

    // Traffic in flight across the migration.
    for i in 0..20u64 {
        rt.inject_after(
            SimDuration::from_millis(i * 5),
            "counter",
            Message::request("tick", Value::Null),
        )
        .unwrap();
    }
    rt.run_until(SimTime::from_millis(20));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "counter".into(),
        to: NodeId(1),
    }));
    rt.run_until(SimTime::from_secs(5));

    assert_eq!(rt.node_of("counter"), Some(NodeId(1)));
    let report = rt.reports().last().unwrap();
    assert!(report.success, "{:?}", report.failure);
    assert!(report.max_blackout() > SimDuration::ZERO);
    // Every tick processed exactly once, in order.
    assert_eq!(last_count(&mut rt), 20);
    let snap = rt.observe();
    assert_eq!(snap.component("counter").unwrap().seq_anomalies, 0);
}

#[test]
fn reconfig_under_load_holds_messages_without_loss() {
    let mut rt = counter_runtime();
    for i in 0..50u64 {
        rt.inject_after(
            SimDuration::from_millis(i * 2),
            "counter",
            Message::request("tick", Value::Null),
        )
        .unwrap();
    }
    // Swap right in the middle of the stream.
    rt.run_until(SimTime::from_millis(50));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "counter".into(),
        type_name: "Counter".into(),
        version: 2,
        transfer: StateTransfer::Snapshot,
    }));
    rt.run_until(SimTime::from_secs(10));

    let report = rt.reports().last().unwrap();
    assert!(report.success);
    assert_eq!(last_count(&mut rt), 50, "all 50 ticks counted exactly once");
    let snap = rt.observe();
    assert_eq!(snap.component("counter").unwrap().seq_anomalies, 0);
}

#[test]
fn migrating_to_dead_node_fails_cleanly() {
    let mut rt = counter_runtime();
    rt.inject_faults({
        let mut f = aas_sim::fault::FaultSchedule::new();
        f.at(SimTime::from_micros(1), FaultKind::NodeCrash(NodeId(1)));
        f
    });
    rt.run_until(SimTime::from_millis(1));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "counter".into(),
        to: NodeId(1),
    }));
    rt.run_until(SimTime::from_secs(1));
    let report = rt.reports().last().unwrap();
    assert!(!report.success);
    assert_eq!(rt.node_of("counter"), Some(NodeId(0)));
    // Still functional after the abort.
    tick(&mut rt, 1);
    rt.run_until(SimTime::from_secs(2));
    assert_eq!(last_count(&mut rt), 1);
}

#[test]
fn remove_component_requires_unbinding_first() {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();

    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::RemoveComponent {
        name: "counter".into(),
    }));
    rt.run_until(SimTime::from_secs(1));
    assert!(!rt.reports().last().unwrap().success);

    // Unbind, then remove: succeeds.
    let plan: ReconfigPlan = vec![
        ReconfigAction::Unbind {
            from: ("fwd".into(), "out".into()),
        },
        ReconfigAction::RemoveComponent {
            name: "counter".into(),
        },
    ]
    .into_iter()
    .collect();
    rt.request_reconfig(plan);
    rt.run_until(SimTime::from_secs(2));
    assert!(rt.reports().last().unwrap().success);
    assert_eq!(rt.lifecycle("counter"), None);
    assert_eq!(rt.instance_names().count(), 1);
}

#[test]
fn pipeline_forwards_through_connector() {
    let mut rt = runtime(3);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();

    for _ in 0..4 {
        rt.inject("fwd", Message::event("tick", Value::Null))
            .unwrap();
    }
    rt.run_until(SimTime::from_secs(1));
    let snap = rt.observe();
    assert_eq!(snap.component("counter").unwrap().processed, 4);
    assert_eq!(snap.connector("wire").unwrap().mediated, 4);
    assert_eq!(snap.component("counter").unwrap().seq_anomalies, 0);
}

#[test]
fn round_robin_distributes_between_targets() {
    let mut rt = runtime(3);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("c1", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.component("c2", ComponentDecl::new("Counter", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("lb").with_policy(RoutingPolicy::RoundRobin));
    cfg.bind(BindingDecl::new("fwd", "out", "lb", "c1", "in").also_to("c2", "in"));
    rt.deploy(&cfg).unwrap();

    for _ in 0..10 {
        rt.inject("fwd", Message::event("tick", Value::Null))
            .unwrap();
    }
    rt.run_until(SimTime::from_secs(1));
    let snap = rt.observe();
    assert_eq!(snap.component("c1").unwrap().processed, 5);
    assert_eq!(snap.component("c2").unwrap().processed, 5);
    // Per-target sequence numbering keeps both streams clean.
    assert_eq!(snap.component("c1").unwrap().seq_anomalies, 0);
    assert_eq!(snap.component("c2").unwrap().seq_anomalies, 0);
}

#[test]
fn broadcast_reaches_all_targets() {
    let mut rt = runtime(3);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("c1", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.component("c2", ComponentDecl::new("Counter", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("bc").with_policy(RoutingPolicy::Broadcast));
    cfg.bind(BindingDecl::new("fwd", "out", "bc", "c1", "in").also_to("c2", "in"));
    rt.deploy(&cfg).unwrap();

    for _ in 0..6 {
        rt.inject("fwd", Message::event("tick", Value::Null))
            .unwrap();
    }
    rt.run_until(SimTime::from_secs(1));
    let snap = rt.observe();
    assert_eq!(snap.component("c1").unwrap().processed, 6);
    assert_eq!(snap.component("c2").unwrap().processed, 6);
}

#[test]
fn adapt_connector_is_instant_and_preserves_bindings() {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();

    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(1));

    // Swap in a metering connector: no reports, no blackout, no loss.
    rt.adapt_connector(
        "wire",
        ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Metering),
    )
    .unwrap();
    assert!(rt.reports().is_empty());
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(2));
    let snap = rt.observe();
    assert_eq!(snap.component("counter").unwrap().processed, 2);
    assert_eq!(snap.component("counter").unwrap().seq_anomalies, 0);
    assert_eq!(snap.connector("wire").unwrap().mediated, 1);
}

#[test]
fn queued_plans_execute_in_order() {
    let mut rt = counter_runtime();
    tick(&mut rt, 30); // keep it busy so the first plan must wait
    let id1 = rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "counter".into(),
        type_name: "Counter".into(),
        version: 2,
        transfer: StateTransfer::Snapshot,
    }));
    let id2 = rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "counter".into(),
        type_name: "Counter".into(),
        version: 1,
        transfer: StateTransfer::Snapshot,
    }));
    rt.run_until(SimTime::from_secs(10));
    assert_eq!(rt.reports().len(), 2);
    assert_eq!(rt.reports()[0].id, id1);
    assert_eq!(rt.reports()[1].id, id2);
    assert!(rt.reports()[0].success);
    // Downgrading v2 -> v1 removes `reset`: correctly rejected as an
    // interface regression; the v2 implementation stays in place.
    assert!(!rt.reports()[1].success);
    tick(&mut rt, 1);
    rt.run_until(SimTime::from_secs(11));
    assert_eq!(last_count(&mut rt), 31, "state survived both swaps");
}

#[test]
fn raml_rule_fires_and_adapts() {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();

    let mut raml = Raml::new(SimDuration::from_millis(100));
    raml.add_constraint(Constraint::NoSequenceAnomalies {
        component: "counter".into(),
    });
    raml.add_rule(Rule::new(
        "meter-when-busy",
        Metric::Processed("counter".into()),
        RuleMonitor::new(TemporalOp::Implies, Cmp::Ge, 3.0),
        Intercession::AdaptConnector {
            name: "wire".into(),
            spec: ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Metering),
        },
        SimDuration::from_secs(100),
    ));
    rt.install_raml(raml);

    for i in 0..10u64 {
        rt.inject_after(
            SimDuration::from_millis(i * 30),
            "fwd",
            Message::event("tick", Value::Null),
        )
        .unwrap();
    }
    rt.run_until(SimTime::from_secs(1));
    // The rule swapped in a metering connector mid-run.
    let snap = rt.observe();
    assert!(snap.connector("wire").unwrap().mean_metered_latency_ms > 0.0);
    assert_eq!(rt.raml().unwrap().rules()[0].fired_count(), 1);
    assert!(rt.raml().unwrap().violations().is_empty());
}

#[test]
fn node_crash_drops_messages_and_recovery_restores() {
    let mut rt = counter_runtime();
    let mut faults = aas_sim::fault::FaultSchedule::new();
    faults.node_outage(
        NodeId(0),
        SimTime::from_millis(10),
        SimTime::from_millis(100),
    );
    rt.inject_faults(faults);

    rt.inject_after(
        SimDuration::from_millis(50),
        "counter",
        Message::request("tick", Value::Null),
    )
    .unwrap();
    rt.inject_after(
        SimDuration::from_millis(200),
        "counter",
        Message::request("tick", Value::Null),
    )
    .unwrap();
    rt.run_until(SimTime::from_secs(1));
    // First tick dropped (node down at delivery), second processed.
    let replies = rt.take_outbox();
    assert_eq!(replies.len(), 1);
    assert!(rt.kernel_counters().get("faults_applied") > 0);
    assert!(rt.metrics().dropped >= 1 || rt.kernel_counters().get("dropped") >= 1);
}

#[test]
fn unrouted_sends_are_counted() {
    let mut rt = runtime(1);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    rt.deploy(&cfg).unwrap();
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(1));
    assert_eq!(rt.metrics().unrouted, 1);
}

#[test]
fn deploy_rejects_duplicate_component() {
    let mut rt = counter_runtime();
    let err = rt
        .add_component("counter", &ComponentDecl::new("Counter", 1, NodeId(0)))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::DuplicateComponent(_)));
}

#[test]
fn observe_reports_topology_and_hosting() {
    let rt = counter_runtime();
    let snap = rt.observe();
    assert_eq!(snap.nodes.len(), 2);
    assert!(snap.hosted(NodeId(0)).any(|c| c.name == "counter"));
}

#[test]
fn empty_plan_succeeds_immediately() {
    let mut rt = counter_runtime();
    rt.request_reconfig(ReconfigPlan::new());
    assert_eq!(rt.reports().len(), 1);
    assert!(rt.reports()[0].success);
    assert_eq!(rt.reports()[0].actions_applied, 0);
}

/// `fwd → counter` through `wire`, whose protocol makes two `tick`s one
/// collaboration round: after one, the connector is mid-round in `busy`.
fn round_runtime() -> Runtime {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    let mut lts = crate::lts::Lts::new("round");
    let idle = lts.add_state("idle");
    let busy = lts.add_state("busy");
    lts.set_initial(idle);
    lts.mark_final(idle);
    lts.add_transition(idle, crate::lts::Label::recv("tick"), busy);
    lts.add_transition(busy, crate::lts::Label::recv("tick"), idle);
    cfg.connector(ConnectorSpec::direct("wire").with_protocol(lts));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();
    rt
}

#[test]
fn connector_swap_is_refused_mid_collaboration() {
    let mut rt = round_runtime();
    let metering = || ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Metering);

    // One tick: the automaton is at `busy`, mid-round. Every swap path
    // refuses, naming the state, and changes nothing.
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(1));
    let mid_round = RuntimeError::MidCollaboration {
        connector: "wire".into(),
        state: "busy".into(),
    };
    assert_eq!(
        rt.adapt_connector("wire", metering()),
        Err(mid_round.clone())
    );
    let door = rt.meta_call(|_, door| door.adapt_connector("wire", metering()));
    assert_eq!(door, Err(mid_round));
    let graph = rt.graph_fingerprint();
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapConnector {
        name: "wire".into(),
        spec: metering(),
    }));
    let report = rt.reports().last().unwrap();
    assert_eq!(
        report.failure.as_deref(),
        Some(
            "rejected: swap connector wire: connector `wire` is mid-collaboration in state `busy`"
        )
    );
    assert_eq!(rt.graph_fingerprint(), graph);

    // The second tick completes the round: the same call now applies.
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(2));
    rt.adapt_connector("wire", metering()).unwrap();
    // The new connector has the metering aspect and fresh stats.
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(3));
    let snap = rt.observe();
    assert!(snap.connector("wire").unwrap().mean_metered_latency_ms > 0.0);
    assert_eq!(snap.connector("wire").unwrap().mediated, 1);
    assert_eq!(snap.component("counter").unwrap().processed, 3);
    assert_eq!(snap.component("counter").unwrap().seq_anomalies, 0);
    assert!(rt.check_settled().is_empty(), "{:?}", rt.check_settled());
}

#[test]
fn a_swap_validated_at_a_final_state_rolls_back_if_applied_mid_round() {
    let mut rt = round_runtime();
    let graph = rt.graph_fingerprint();
    // A busy `counter` holds the plan's migration open; meanwhile a tick
    // through `wire` starts a round, so the swap meets it mid-round.
    for _ in 0..30 {
        rt.inject("counter", Message::request("tick", Value::Null))
            .unwrap();
    }
    let plan: ReconfigPlan = [
        ReconfigAction::Migrate {
            name: "counter".into(),
            to: NodeId(0),
        },
        ReconfigAction::SwapConnector {
            name: "wire".into(),
            spec: ConnectorSpec::direct("wire"),
        },
    ]
    .into_iter()
    .collect();
    rt.request_reconfig(plan);
    assert!(rt.reconfig_in_progress());
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(2));

    let report = rt.reports().last().unwrap();
    assert_eq!(
        report.failure.as_deref(),
        Some("swap connector wire: connector `wire` is mid-collaboration in state `busy`")
    );
    assert_eq!(rt.graph_fingerprint(), graph, "rolled back");
    let rolled_back = rt.obs().audit.of_kind(aas_obs::AuditKind::PlanRolledBack);
    assert_eq!(rolled_back.len(), 1);
    assert!(rt.check_settled().is_empty(), "{:?}", rt.check_settled());
}

#[test]
fn immediate_swap_when_already_quiescent() {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire")); // no protocol
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(1));
    // Protocol-free connectors are always at a final state.
    rt.adapt_connector("wire", ConnectorSpec::direct("wire"))
        .unwrap();
    assert!(matches!(
        rt.adapt_connector("ghost", ConnectorSpec::direct("g")),
        Err(RuntimeError::UnknownConnector(_))
    ));
}

/// Publishes a protocol that demands `hello` before it serves a
/// `request`.
#[derive(Debug, Default)]
struct Picky;

impl Component for Picky {
    fn type_name(&self) -> &str {
        "Picky"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("request")];
        static IFACE: Interface = Interface::fixed("Picky", &OPS);
        &IFACE
    }
    fn on_message(&mut self, _: &mut CallCtx, _: Message) -> Result<(), ComponentError> {
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Picky", 1)
    }
    fn restore(&mut self, _: &StateSnapshot) -> Result<(), crate::error::StateError> {
        Ok(())
    }
    fn protocol(&self) -> Option<crate::lts::Lts> {
        let mut l = crate::lts::Lts::new("picky");
        let s0 = l.add_state("hello-first");
        let s1 = l.add_state("serving");
        l.set_initial(s0);
        l.mark_final(s1);
        l.add_transition(s0, crate::lts::Label::recv("hello"), s1);
        l.add_transition(s1, crate::lts::Label::recv("request"), s1);
        Some(l)
    }
}

/// A connector that hands over `request` and `hello`, but can only
/// deliver `hello` *after* a request was seen: it deadlocks with
/// [`Picky`] (each waits for the other).
fn deadlocking(name: &str) -> ConnectorSpec {
    let mut proto = crate::lts::Lts::new("conn");
    let c0 = proto.add_state("start");
    let c1 = proto.add_state("after-request");
    proto.set_initial(c0);
    proto.mark_final(c0);
    proto.add_transition(c0, crate::lts::Label::send("request"), c1);
    proto.add_transition(c1, crate::lts::Label::send("hello"), c0);
    ConnectorSpec::direct(name).with_protocol(proto)
}

/// `fwd` on node 0 and a [`Picky`] on node 1, unbound.
fn picky_runtime() -> Runtime {
    let mut reg = registry();
    reg.register("Picky", 1, |_| Box::new(Picky));
    let topo = Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6);
    let mut rt = Runtime::new(topo, 1, reg);
    rt.add_component("fwd", &ComponentDecl::new("Forwarder", 1, NodeId(0)))
        .unwrap();
    rt.add_component("picky", &ComponentDecl::new("Picky", 1, NodeId(1)))
        .unwrap();
    rt
}

#[test]
fn bind_rejects_protocol_deadlock() {
    let mut rt = picky_runtime();
    rt.add_connector(deadlocking("wire")).unwrap();
    let err = rt
        .add_binding(BindingDecl::new("fwd", "out", "wire", "picky", "in"))
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::IncompatibleProtocols { ref component, .. } if component == "picky"),
        "got {err}"
    );

    // A compatible server binds fine through the same connector.
    assert!(rt
        .add_binding(BindingDecl::new("fwd", "out", "wire", "counter_like", "in"))
        .is_err()); // unknown component, sanity
    rt.add_component("plain", &ComponentDecl::new("Counter", 1, NodeId(1)))
        .unwrap();
    rt.add_binding(BindingDecl::new("fwd", "out", "wire", "plain", "in"))
        .unwrap();
}

#[test]
fn every_connector_swap_path_refuses_what_bind_refuses() {
    // `fwd → picky` bound through a protocol-free `wire`; then `wire` is
    // swapped for the connector `bind_rejects_protocol_deadlock` refuses.
    let mut rt = picky_runtime();
    rt.add_connector(ConnectorSpec::direct("wire")).unwrap();
    rt.add_binding(BindingDecl::new("fwd", "out", "wire", "picky", "in"))
        .unwrap();
    let refused = |err: RuntimeError| {
        matches!(err, RuntimeError::IncompatibleProtocols { ref connector, ref component, .. }
            if connector == "wire" && component == "picky")
    };
    let graph = rt.graph_fingerprint();

    assert!(refused(
        rt.adapt_connector("wire", deadlocking("wire")).unwrap_err()
    ));
    let door = rt.meta_call(|_, door| door.adapt_connector("wire", deadlocking("wire")));
    assert!(refused(door.unwrap_err()));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapConnector {
        name: "wire".into(),
        spec: deadlocking("wire"),
    }));
    let report = rt.reports().last().unwrap();
    assert!(!report.success);
    assert_eq!(
        report.failure.as_deref(),
        Some("rejected: swap connector wire: incompatible protocols between connector `wire` and `picky`")
    );
    assert_eq!(rt.graph_fingerprint(), graph);
    assert!(rt.check_settled().is_empty(), "{:?}", rt.check_settled());
}

#[test]
fn connector_protocol_violations_are_counted_on_the_connector() {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    // A protocol that demands an `init` before any `tick`: the very
    // first `tick` is a collaboration violation.
    let mut lts = crate::lts::Lts::new("strict");
    let s0 = lts.add_state("wait-init");
    let s1 = lts.add_state("ready");
    lts.set_initial(s0);
    lts.mark_final(s1);
    lts.add_transition(s0, crate::lts::Label::recv("init"), s1);
    lts.add_transition(s1, crate::lts::Label::recv("tick"), s1);
    cfg.connector(ConnectorSpec::direct("wire").with_protocol(lts));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();

    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(1));
    let snap = rt.observe();
    assert_eq!(
        snap.connector("wire").unwrap().violations,
        1,
        "expected a protocol violation"
    );
    // Open-world mode: the message still went through.
    assert_eq!(snap.component("counter").unwrap().processed, 1);
}

#[test]
fn inject_to_unknown_component_errors() {
    let mut rt = counter_runtime();
    assert!(matches!(
        rt.inject("ghost", Message::request("tick", Value::Null)),
        Err(RuntimeError::UnknownComponent(_))
    ));
    assert!(matches!(
        rt.inject_after(
            SimDuration::from_secs(1),
            "ghost",
            Message::request("tick", Value::Null)
        ),
        Err(RuntimeError::UnknownComponent(_))
    ));
}

#[test]
fn remove_connector_in_use_fails_then_succeeds_after_unbind() {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();

    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::RemoveConnector {
        name: "wire".into(),
    }));
    rt.run_until(SimTime::from_secs(1));
    assert!(!rt.reports()[0].success, "in use: must fail");

    let plan: ReconfigPlan = vec![
        ReconfigAction::Unbind {
            from: ("fwd".into(), "out".into()),
        },
        ReconfigAction::RemoveConnector {
            name: "wire".into(),
        },
    ]
    .into_iter()
    .collect();
    rt.request_reconfig(plan);
    rt.run_until(SimTime::from_secs(2));
    assert!(rt.reports()[1].success);
}

#[test]
fn component_timers_drive_behavior() {
    // MediaSource-style timer loops work through the runtime's
    // ComponentTimer plumbing: set a timer from a handler, receive the
    // callback, set another.
    #[derive(Debug, Default)]
    struct Ticker {
        ticks: i64,
    }
    impl Component for Ticker {
        fn type_name(&self) -> &str {
            "Ticker"
        }
        fn provided(&self) -> &Interface {
            static OPS: [Signature; 1] = [Signature::one_way("start")];
            static IFACE: Interface = Interface::fixed("Ticker", &OPS);
            &IFACE
        }
        fn on_message(&mut self, ctx: &mut CallCtx, _msg: Message) -> Result<(), ComponentError> {
            ctx.set_timer(SimDuration::from_millis(100), 7);
            Ok(())
        }
        fn on_timer(&mut self, ctx: &mut CallCtx, tag: u64) {
            assert_eq!(tag, 7);
            self.ticks += 1;
            ctx.metric("ticks", self.ticks as f64);
            if self.ticks < 5 {
                ctx.set_timer(SimDuration::from_millis(100), 7);
            }
        }
        fn snapshot(&self) -> StateSnapshot {
            StateSnapshot::new("Ticker", 1).with_field("ticks", Value::from(self.ticks))
        }
        fn restore(&mut self, s: &StateSnapshot) -> Result<(), crate::error::StateError> {
            self.ticks = s.require("ticks")?.as_int().unwrap_or(0);
            Ok(())
        }
    }
    let mut reg = registry();
    reg.register("Ticker", 1, |_| Box::new(Ticker::default()));
    let topo = Topology::clique(1, 100.0, SimDuration::from_millis(1), 1e6);
    let mut rt = Runtime::new(topo, 1, reg);
    let mut cfg = Configuration::new();
    cfg.component("ticker", ComponentDecl::new("Ticker", 1, NodeId(0)));
    rt.deploy(&cfg).unwrap();
    rt.inject("ticker", Message::event("start", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(5));
    let snap = rt.observe();
    assert_eq!(
        snap.custom_mean("ticker", "ticks"),
        Some(3.0),
        "mean of 1..=5"
    );
}

#[test]
fn structural_add_and_bind_at_runtime() {
    let mut rt = counter_runtime();
    let plan: ReconfigPlan = vec![
        ReconfigAction::AddComponent {
            name: "fwd".into(),
            decl: ComponentDecl::new("Forwarder", 1, NodeId(1)),
        },
        ReconfigAction::AddConnector {
            name: "wire".into(),
            spec: ConnectorSpec::direct("wire"),
        },
        ReconfigAction::Bind(BindingDecl::new("fwd", "out", "wire", "counter", "in")),
    ]
    .into_iter()
    .collect();
    rt.request_reconfig(plan);
    rt.run_until(SimTime::from_secs(1));
    assert!(rt.reports()[0].success);
    rt.inject("fwd", Message::event("tick", Value::Null))
        .unwrap();
    rt.run_until(SimTime::from_secs(2));
    assert_eq!(rt.observe().component("counter").unwrap().processed, 1);
}

// ------------------------------------------------------------------
// Self-healing: detection, repair policies, crash accounting
// ------------------------------------------------------------------

use crate::connector::RetryPolicy;
use crate::detector::DetectorConfig;
use crate::heal::RepairPolicy;
use aas_sim::fault::FaultSchedule;

fn node_outage(rt: &mut Runtime, node: u32, from_ms: u64, to_ms: u64) {
    let mut s = FaultSchedule::new();
    s.node_outage(
        NodeId(node),
        SimTime::from_millis(from_ms),
        SimTime::from_millis(to_ms),
    );
    rt.inject_faults(s);
}

fn audit_labels(rt: &Runtime) -> Vec<&'static str> {
    rt.obs()
        .audit
        .entries()
        .iter()
        .map(|e| e.kind.label())
        .collect()
}

#[test]
fn detector_suspects_silence_and_clears_on_recovery() {
    let mut rt = runtime(3);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    node_outage(&mut rt, 2, 1000, 3000);

    rt.run_until(SimTime::from_millis(2000));
    let d = rt.failure_detector().unwrap();
    assert!(d.is_suspected(NodeId(2)), "silent node should be suspected");
    assert!(!d.is_suspected(NodeId(1)), "healthy node stays trusted");

    rt.run_until(SimTime::from_millis(5000));
    assert!(!rt.failure_detector().unwrap().is_suspected(NodeId(2)));
    let labels = audit_labels(&rt);
    assert!(labels.contains(&"failure_suspected"));
    assert!(labels.contains(&"failure_cleared"));
}

#[test]
fn fail_stop_kills_instances_and_restart_repairs_in_place() {
    let mut rt = counter_runtime();
    rt.add_component("victim", &ComponentDecl::new("Counter", 1, NodeId(1)))
        .unwrap();
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::RestartInPlace);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    node_outage(&mut rt, 1, 1000, 2000);

    // While the node is down (and after detection), the instance is dead.
    rt.run_until(SimTime::from_millis(1900));
    assert_eq!(rt.lifecycle("victim"), Some(Lifecycle::Failed));

    // The node returns; restart-in-place reinstates the component.
    rt.run_until(SimTime::from_secs(4));
    assert_eq!(rt.lifecycle("victim"), Some(Lifecycle::Active));
    assert_eq!(
        rt.node_of("victim"),
        Some(NodeId(1)),
        "restart stays in place"
    );
    let m = rt.metrics();
    assert!(m.mttd_ms.count() >= 1, "detection latency was measured");
    assert!(m.mttr_ms.count() >= 1, "repair latency was measured");
    let labels = audit_labels(&rt);
    assert!(labels.contains(&"repair_planned"));
    assert!(labels.contains(&"repair_completed"));
}

#[test]
fn failover_migrates_off_the_dead_node_and_service_resumes() {
    let mut rt = runtime(3);
    let mut cfg = Configuration::new();
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    rt.deploy(&cfg).unwrap();
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    // The node dies and never comes back within the run.
    node_outage(&mut rt, 1, 1000, 30_000);
    tick(&mut rt, 3);
    for k in 1..=50u64 {
        rt.inject_after(
            SimDuration::from_millis(100 * k),
            "counter",
            Message::request("tick", Value::Null),
        )
        .unwrap();
    }

    rt.run_until(SimTime::from_secs(6));
    assert_ne!(rt.node_of("counter"), Some(NodeId(1)), "evacuated");
    assert_eq!(rt.lifecycle("counter"), Some(Lifecycle::Active));
    assert_eq!(rt.metrics().mttr_ms.count(), 1);
    // Failover restores from checkpoint: the pre-crash count survives
    // and the post-repair stream keeps incrementing it.
    assert!(last_count(&mut rt) > 3, "service resumed after failover");
    let report = rt.reports().last().unwrap();
    assert!(report.success, "{:?}", report.failure);
}

#[test]
fn no_repair_leaves_fail_stop_instances_dead() {
    let mut rt = runtime(3);
    let mut cfg = Configuration::new();
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    rt.deploy(&cfg).unwrap();
    rt.set_fail_stop(true);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    node_outage(&mut rt, 1, 1000, 2000);
    rt.run_until(SimTime::from_secs(5));
    assert_eq!(
        rt.lifecycle("counter"),
        Some(Lifecycle::Failed),
        "without a repair policy the crash is permanent"
    );
    assert!(rt.metrics().mttr_ms.count() == 0);
}

#[test]
fn queued_jobs_lost_in_a_crash_are_counted_and_audited() {
    let mut rt = counter_runtime();
    // Five jobs of 1ms each queue on node 0; the crash lands mid-queue.
    tick(&mut rt, 5);
    node_outage(&mut rt, 0, 2, 500);
    rt.run_until(SimTime::from_secs(1));

    let m = rt.metrics();
    assert!(m.dropped_on_crash >= 1, "lost jobs are accounted");
    assert!(m.dropped >= m.dropped_on_crash, "subset of total drops");
    assert!(audit_labels(&rt).contains(&"dropped_on_crash"));
    let processed = rt.observe().component("counter").unwrap().processed;
    assert!(
        processed + m.dropped_on_crash >= 5,
        "every queued job either completed or was counted as lost \
         (processed={processed}, lost={})",
        m.dropped_on_crash
    );
}

#[test]
fn connector_retry_redelivers_after_transient_outage() {
    let mut rt = runtime(2);
    let mut cfg = Configuration::new();
    cfg.component("fwd", ComponentDecl::new("Forwarder", 1, NodeId(0)));
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.connector(
        ConnectorSpec::direct("wire").with_retry(RetryPolicy::new(6, SimDuration::from_millis(50))),
    );
    cfg.bind(BindingDecl::new("fwd", "out", "wire", "counter", "in"));
    rt.deploy(&cfg).unwrap();
    node_outage(&mut rt, 1, 100, 400);
    rt.inject_after(
        SimDuration::from_millis(200),
        "fwd",
        Message::event("tick", Value::Null),
    )
    .unwrap();

    rt.run_until(SimTime::from_secs(2));
    let m = rt.metrics();
    assert!(m.retries >= 1, "the drop triggered backed-off retries");
    assert_eq!(
        rt.observe().component("counter").unwrap().processed,
        1,
        "the message eventually got through"
    );
}

#[test]
fn an_agent_record_belongs_to_its_name_and_a_fork_leaves_the_transcript_behind() {
    let mut rt = runtime(2);
    // Before the instance exists: the profile lands in the record its
    // name will address.
    rt.set_agent_profile(
        "late",
        AgentProfile {
            exempt: true,
            ..AgentProfile::default()
        },
    );
    let mut cfg = Configuration::new();
    cfg.component("counter", ComponentDecl::new("Counter", 1, NodeId(0)));
    cfg.component("late", ComponentDecl::new("Counter", 1, NodeId(1)));
    rt.deploy(&cfg).unwrap();
    rt.enable_negotiation(NegotiateConfig::default());
    tick(&mut rt, 5);
    rt.run_until(SimTime::from_millis(350));

    assert_eq!(rt.negotiation_rounds(), 3);
    let grant = rt.grant_of("counter").expect("granted").clone();
    assert_eq!(grant.epoch, 3);
    assert!(
        rt.grant_of("late").is_none(),
        "an exempt agent files nothing"
    );
    assert!(rt.grant_of("nobody").is_none());

    // The fork negotiates on from the same coordinator and records, and
    // starts a transcript of its own.
    let epoch = |rt: &Runtime| rt.negotiation_outcome().map(|o| o.epoch);
    let mut fork = rt.fork_twin().expect("nothing in flight");
    assert_eq!(epoch(&fork), None);
    assert_eq!(fork.negotiation_rounds(), 3);
    assert_eq!(fork.grant_of("counter"), Some(&grant));
    fork.run_until(SimTime::from_millis(450));
    assert_eq!(epoch(&fork), Some(4));
    assert_eq!(epoch(&rt), Some(3), "the mainline's is its own");
}

/// A twin's negotiation round writes its grants to the twin's registry,
/// never to the gauges the parent's agents registered.
#[test]
fn a_twins_negotiation_round_leaves_the_parents_fraction_gauges_alone() {
    let mut rt = counter_runtime();
    rt.enable_negotiation(NegotiateConfig::default());
    tick(&mut rt, 5);
    rt.run_until(SimTime::from_millis(350));
    let parent = rt.obs().metrics.gauge("negotiate.fraction.counter");
    parent.set(-1.0);

    let mut fork = rt.fork_twin().expect("nothing in flight");
    fork.run_until(SimTime::from_millis(450));
    assert_eq!(
        fork.negotiation_outcome().map(|o| o.epoch),
        Some(4),
        "the twin negotiated"
    );
    let twins = fork.obs().metrics.gauge("negotiate.fraction.counter").get();
    assert!(twins > 0.0, "the twin's grant is in its own registry");
    assert_eq!(parent.get(), -1.0, "and not in the parent's");
}

use aas_control::situational::{AgentObservation, NodeSituation, SituationalModel};

/// The situational model as the negotiator once built it: a fresh read of
/// the instance table and the topology into an empty model. Kept as the
/// oracle the model kept and refreshed in place must equal.
fn situational_model_oracle(rt: &mut Runtime, config: &NegotiateConfig) -> SituationalModel {
    let now = rt.now();
    let mut model = SituationalModel::empty(now);
    let dt = config.interval.as_secs_f64().max(1e-9);
    let mut offered_total = 0u64;
    let meta = rt.meta.as_mut().expect("in place");
    for (id, inst) in rt.instances.iter() {
        let offered_last = meta.negotiate.agent(id).offered_last;
        let arrivals = rt.gate.offered(id).saturating_sub(offered_last);
        offered_total += arrivals;
        model.agents.insert(
            inst.name.to_string(),
            AgentObservation {
                node: inst.node.0,
                arrivals,
                inflight: u64::from(inst.inflight),
                processed: inst.processed,
                errors: inst.errors,
                mean_latency_ms: inst.latency.mean(),
            },
        );
    }
    let mut capacity_units = 0.0;
    let now_s = now.as_secs_f64();
    for n in rt.kernel.topology().nodes() {
        let (up, effective_capacity) = (n.is_up(), n.effective_capacity(now));
        if up {
            capacity_units += effective_capacity;
        }
        let suspicion = meta
            .detector
            .as_ref()
            .map_or(0.0, |d| d.detector.phi(n.id(), now));
        let cumulative = n.utilization(now);
        let last = meta
            .negotiate
            .node_busy_last
            .insert(n.id().0, (now_s, cumulative));
        let utilization = match last {
            Some((t0, u0)) if now_s > t0 + 1e-9 => {
                ((cumulative * now_s - u0 * t0) / (now_s - t0)).clamp(0.0, 1.0)
            }
            _ => cumulative,
        };
        model.nodes.insert(
            n.id().0,
            NodeSituation {
                up,
                utilization,
                backlog_ms: n.backlog(now).as_micros() as f64 / 1e3,
                effective_capacity,
                suspicion,
            },
        );
    }
    model.arrival_rate = offered_total as f64 / dt;
    model.capacity_rate = capacity_units / config.nominal_cost.max(1e-9);
    model
}

/// Three agents at uneven rates, two of them overloading node 1, under
/// negotiation in `mode`. With `crash`, the detector runs and node 1 is
/// down from 0.8 s to 1.4 s, so failover moves its agents mid-run.
fn overload_run(mode: CoordinationMode, crash: bool) -> (Runtime, NegotiateConfig) {
    let mut rt = runtime(3);
    let mut cfg = Configuration::new();
    cfg.component("hot", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.component("warm", ComponentDecl::new("Counter", 1, NodeId(1)));
    cfg.component("cool", ComponentDecl::new("Counter", 1, NodeId(2)));
    rt.deploy(&cfg).unwrap();
    for (name, period_us) in [("hot", 500), ("warm", 1_500), ("cool", 4_000)] {
        for k in 1..=2_000_000 / period_us {
            rt.inject_after(
                SimDuration::from_micros(k * period_us),
                name,
                Message::event("tick", Value::Null),
            )
            .unwrap();
        }
    }
    if crash {
        rt.set_fail_stop(true);
        rt.set_repair_policy(RepairPolicy::FailoverMigrate);
        rt.enable_failure_detector(DetectorConfig::new(
            SimDuration::from_millis(50),
            2.0,
            NodeId(0),
        ));
        node_outage(&mut rt, 1, 800, 1400);
    }
    let config = NegotiateConfig {
        mode,
        migrate_above: 0.9,
        ..NegotiateConfig::default()
    };
    rt.enable_negotiation(config.clone());
    (rt, config)
}

/// Steps `rt` to 2.5 s and, at the last instant before each negotiation
/// tick, holds the kept model, refreshed in place, to the oracle's. Each
/// of `plans` is requested right after the check before its round.
fn assert_model_equals_oracle_before_every_tick(
    mut rt: Runtime,
    config: &NegotiateConfig,
    mut plans: Vec<(u64, ReconfigPlan)>,
) -> Runtime {
    let end = SimTime::from_millis(2_500);
    let mut checked = 0;
    while let Some(at) = rt.kernel.next_event_time().filter(|t| *t <= end) {
        let next_tick = SimTime::ZERO + config.interval * (rt.negotiation_rounds() + 1);
        if at >= next_tick && checked == rt.negotiation_rounds() {
            let busy_last = rt.meta().negotiate.node_busy_last.clone();
            let expected = situational_model_oracle(&mut rt, config);
            rt.meta_mut().negotiate.node_busy_last = busy_last.clone();
            rt.meta_call(|meta, door| meta.refresh_model(door.view(), config));
            let model = &rt.meta().negotiate.model;
            assert_eq!(model, &expected, "round {checked} at {}", rt.now());
            rt.meta_mut().negotiate.node_busy_last = busy_last;
            if let Some(i) = plans.iter().position(|(round, _)| *round == checked) {
                rt.request_reconfig(plans.remove(i).1);
            }
            checked += 1;
        }
        rt.step();
    }
    assert_eq!(checked, 25, "every tick to 2.5 s was checked");
    rt
}

#[test]
fn the_kept_negotiated_model_equals_a_fresh_read_through_a_crash() {
    let (rt, config) = overload_run(CoordinationMode::Negotiated, true);
    assert_model_equals_oracle_before_every_tick(rt, &config, Vec::new());
}

/// An instance that leaves loses its entry in the kept model, and one
/// that arrives gains one, at the round the oracle sees them.
#[test]
fn the_kept_model_drops_an_instance_that_leaves_and_adds_one_that_arrives() {
    let (rt, config) = overload_run(CoordinationMode::Negotiated, false);
    let remove = ReconfigAction::RemoveComponent {
        name: "cool".into(),
    };
    let add = ReconfigAction::AddComponent {
        name: "cold".into(),
        decl: ComponentDecl::new("Counter", 1, NodeId(2)),
    };
    let plans = vec![
        (8, ReconfigPlan::single(remove)),
        (16, ReconfigPlan::single(add)),
    ];
    let rt = assert_model_equals_oracle_before_every_tick(rt, &config, plans);
    assert!(rt.reports().iter().all(|r| r.success));
    let agents: Vec<&str> = rt
        .meta()
        .negotiate
        .model
        .agents
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(agents, ["cold", "hot", "warm"]);
}

#[test]
fn the_kept_independent_model_equals_a_fresh_read() {
    let (rt, config) = overload_run(CoordinationMode::Independent, false);
    assert_model_equals_oracle_before_every_tick(rt, &config, Vec::new());
}

/// How many of 1,000 offers an agent's admission gate lets through, the
/// cost scale it applies, and its retry cap.
type Throttle = (u32, f64, Option<u32>);

/// The [`Throttle`] the dispatch path reads for `id` on `fork`.
fn actuation(fork: &mut Runtime, id: InstId) -> Throttle {
    let mut admitted = 0;
    let mut scale = f64::NAN;
    for _ in 0..1000 {
        let (s, admit) = fork.gate.admit(id);
        admitted += u32::from(admit);
        scale = s;
    }
    let cap = fork.gate.retry_cap(id);
    (admitted, scale, (cap != u32::MAX).then_some(cap))
}

/// Every grant and deny is acted on as DESIGN §2.10 says, checked on a
/// fork after each round so the mainline's offer counts stay untouched:
/// a granted agent admits ⌊rate fraction × 1000⌋ of 1,000 offers, scales
/// its cost to `max(fraction, 0.25)` below a fraction of 0.5 and to 1
/// otherwise, and may retry ⌊granted retry budget⌋ times; a denied one
/// admits nothing, scales to 0.25 and may not retry; a zero-demand grant
/// keeps the throttle it had. Node 0, where the negotiator moves `hot` and
/// `warm` in the first rounds, is down from 0.8 s to 1.4 s, so both are
/// denied there.
#[test]
fn every_round_actuates_its_grants_and_denials_as_arbitrated() {
    let (mut rt, _) = overload_run(CoordinationMode::Negotiated, false);
    node_outage(&mut rt, 0, 800, 1400);
    let end = SimTime::from_millis(2_500);
    let mut last: BTreeMap<Name, (u64, Throttle)> = BTreeMap::new();
    let (mut granted, mut denied, mut kept, mut skipped) = (0, 0, 0, 0);
    while rt.kernel.next_event_time().is_some_and(|t| t <= end) {
        let round = rt.negotiation_rounds();
        rt.step();
        if rt.negotiation_rounds() == round {
            continue;
        }
        // A round that files a migration leaves a plan in flight, and a
        // fork refuses to be taken mid-plan.
        let Some(mut fork) = rt.fork_twin() else {
            skipped += 1;
            continue;
        };
        let outcome = rt.negotiation_outcome().expect("a round ran").clone();
        for g in &outcome.grants {
            let id = rt.instances.id(&g.agent).expect("an instance");
            let read = actuation(&mut fork, id);
            let expected = if g.demand.work_rate > 0.0 {
                granted += 1;
                let rate = (g.granted.work_rate / g.demand.work_rate).clamp(0.0, 1.0);
                let scale = if g.fraction < 0.5 {
                    g.fraction.max(0.25)
                } else {
                    1.0
                };
                let retries = g.granted.retry_budget.floor() as u32;
                ((rate * 1000.0).floor() as u32, scale, Some(retries))
            } else {
                kept += 1;
                let (at, before) = last[&g.agent];
                assert_eq!(at, round, "{}'s throttle was read last round", g.agent);
                before
            };
            assert_eq!(read, expected, "{} in epoch {}", g.agent, outcome.epoch);
            last.insert(g.agent.clone(), (round + 1, read));
        }
        for (agent, _) in &outcome.denied {
            denied += 1;
            let read = actuation(&mut fork, rt.instances.id(agent).expect("an instance"));
            assert_eq!(
                read,
                (0, 0.25, Some(0)),
                "{agent} in epoch {}",
                outcome.epoch
            );
            last.insert(agent.clone(), (round + 1, read));
        }
    }
    assert_eq!(
        (granted, denied, kept, skipped),
        (39, 12, 15, 3),
        "grants, denials, zero-demand grants checked; rounds a plan kept unforked"
    );
}

// ------------------------------------------------------------------
// The meta tick
// ------------------------------------------------------------------

use aas_obs::{AuditEntry, AuditKind, RepairBy};

/// Installing RAML again replaces it: two installs at t = 0 with a
/// 100 ms period evaluate ten times in a second, not twenty.
#[test]
fn raml_installed_twice_evaluates_ten_times_a_second() {
    let mut rt = counter_runtime();
    for _ in 0..2 {
        rt.install_raml(Raml::new(SimDuration::from_millis(100)));
    }
    rt.run_until(SimTime::from_secs(1));
    assert_eq!(rt.raml().unwrap().snapshots_taken(), 10);
}

/// Enabling the detector again replaces it: ten ticks in a second, each
/// sending one heartbeat a watched node, over the channels the first
/// enabling opened.
#[test]
fn a_detector_enabled_twice_ticks_ten_times_a_second_on_one_set_of_channels() {
    let config = DetectorConfig::new(SimDuration::from_millis(100), 3.0, NodeId(0));
    let probe = |enables: usize| {
        let mut rt = runtime(3);
        for _ in 0..enables {
            rt.enable_failure_detector(config);
        }
        rt.run_until(SimTime::from_secs(1));
        let ticks = rt
            .obs()
            .metrics
            .histogram("detector.phi")
            .snapshot()
            .count();
        let heartbeats = rt.kernel_counters().get("sent");
        (
            ticks,
            heartbeats,
            rt.kernel.open_channel(NodeId(1), NodeId(0)),
        )
    };
    let (ticks, heartbeats, next_channel) = probe(2);
    assert_eq!((ticks, heartbeats), (10, 20));
    assert_eq!(
        next_channel,
        probe(1).2,
        "no second set of heartbeat channels"
    );
}

/// Enabling negotiation again replaces it: ten rounds in a second.
#[test]
fn negotiation_enabled_twice_runs_ten_rounds_a_second() {
    let mut rt = counter_runtime();
    for _ in 0..2 {
        rt.enable_negotiation(NegotiateConfig::default());
    }
    rt.run_until(SimTime::from_secs(1));
    assert_eq!(rt.negotiation_rounds(), 10);
}

/// The records of `rt`'s audit log, owned.
fn audit_entries(rt: &Runtime) -> Vec<AuditEntry> {
    rt.obs().audit.entries().iter().collect()
}

/// At an instant the detector and a negotiation round share, the
/// detector's records come before the round's, whichever loop was
/// enabled first: negotiation is enabled first here.
#[test]
fn at_a_shared_instant_the_detector_is_audited_before_the_negotiation_round() {
    let (mut rt, _) = overload_run(CoordinationMode::Negotiated, false);
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_negotiation(NegotiateConfig {
        interval: SimDuration::from_millis(50),
        migrate_above: 0.9,
        ..NegotiateConfig::default()
    });
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    node_outage(&mut rt, 1, 800, 1400);
    rt.run_until(SimTime::from_millis(2_500));
    let detector =
        |k: AuditKind| matches!(k, AuditKind::FailureSuspected | AuditKind::FailureCleared);
    let round = |k: AuditKind| k.label().starts_with("budget_");
    let entries = audit_entries(&rt);
    let mut shared = 0;
    for e in entries.iter().filter(|e| detector(e.event.kind())) {
        let same = entries.iter().filter(|o| o.at_us == e.at_us);
        let rounds: Vec<u64> = same
            .filter(|o| round(o.event.kind()))
            .map(|o| o.seq)
            .collect();
        shared += usize::from(!rounds.is_empty());
        assert!(
            rounds.iter().all(|&seq| seq > e.seq),
            "{} at {} µs after a budget record",
            e.event.kind().label(),
            e.at_us
        );
    }
    assert!(
        shared >= 2,
        "suspicion and clearance each share an instant with a round"
    );
}

/// A repair planned at a tick is audited after that tick's RAML
/// intercessions, whichever loop was enabled first: the detector is
/// enabled first here. RAML's one rule files a plan the validator refuses
/// at every tick, so each tick's RAML plan is numbered just before that
/// tick's repair.
#[test]
fn a_repair_is_planned_after_the_ticks_raml_intercessions() {
    let mut rt = counter_runtime();
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(1),
    ));
    let mut raml = Raml::new(SimDuration::from_millis(50));
    let ghost = ReconfigAction::Migrate {
        name: "ghost".into(),
        to: NodeId(1),
    };
    raml.add_rule(Rule::new(
        "every-tick",
        Metric::Utilization(NodeId(1)),
        RuleMonitor::new(TemporalOp::Implies, Cmp::Ge, 0.0),
        Intercession::Reconfigure(ReconfigPlan::single(ghost)),
        SimDuration::ZERO,
    ));
    rt.install_raml(raml);
    node_outage(&mut rt, 0, 500, 5_000);
    rt.run_until(SimTime::from_secs(2));
    let entries = audit_entries(&rt);
    let (at_us, repair) = entries
        .iter()
        .find_map(|e| match e.event {
            AuditEvent::RepairPlanned {
                by: RepairBy::Plan { id, .. },
                ..
            } => Some((e.at_us, id)),
            _ => None,
        })
        .expect("the counter's host crashed and failover planned");
    let submitted: Vec<u64> = entries
        .iter()
        .filter(|e| e.at_us == at_us)
        .filter_map(|e| match e.event {
            AuditEvent::PlanSubmitted { plan, .. } => Some(plan),
            _ => None,
        })
        .collect();
    assert_eq!(
        submitted,
        [repair - 1, repair],
        "RAML's plan, then the repair"
    );
}
