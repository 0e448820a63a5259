//! Ids never go stale: what is already in flight when the configuration
//! graph is rewritten still means what its *names* mean.
//!
//! Envelopes, retry timers and scheduled injections address instances and
//! connectors by table id. Each case below rewrites the graph with traffic
//! under way — (a) an instance removed and one of the same name added,
//! (b) removed and one of a different name added, (c) its connector
//! swapped under pending retries, (d) a plan rolled back mid-flight — and
//! checks that traffic addressed to a name reaches the bearer of that
//! name or nobody, never another instance.
//!
//! The expected traces are the ones the string-keyed dispatch path of
//! PR 13 (`4233b2b`) produced for the same scenarios: this file ran
//! there unchanged, so every count and the graph fingerprint are held to
//! what name lookup at delivery time gave — but for two lines of (b): the
//! 69 injections scheduled for `mid` that fall due after it is gone used
//! to vanish uncounted (`dropped=1`, `no-instance drops: 0`) and are now
//! dropped and reported like a delivery to a name nobody bears.

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorSpec, RetryPolicy};
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Forwards every tick out of `out`; counts the ticks it saw and how many
/// of them were injected straight at it (`direct`) rather than forwarded.
#[derive(Debug, Default)]
struct Fwd {
    seen: i64,
    direct: i64,
}

impl Component for Fwd {
    fn type_name(&self) -> &str {
        "Fwd"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("tick")];
        static IFACE: Interface = Interface::fixed("Fwd", &OPS);
        &IFACE
    }
    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        self.seen += 1;
        self.direct += i64::from(msg.value.get("direct").is_some());
        ctx.send("out", Message::event("tick", Value::Null));
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Fwd", 1)
            .with_field("seen", Value::Int(self.seen))
            .with_field("direct", Value::Int(self.direct))
    }
    fn restore(&mut self, _snapshot: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
    fn work_cost(&self, _msg: &Message) -> f64 {
        4.0
    }
}

/// Counts ticks. Version 2 passes validation and cannot restore: the
/// mid-flight abort of case (d).
#[derive(Debug)]
struct Count {
    version: u32,
    ticks: i64,
}

impl Component for Count {
    fn type_name(&self) -> &str {
        "Count"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("tick")];
        static IFACE: Interface = Interface::fixed("Count", &OPS);
        &IFACE
    }
    fn on_message(&mut self, _ctx: &mut CallCtx, _msg: Message) -> Result<(), ComponentError> {
        self.ticks += 1;
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Count", self.version).with_field("ticks", Value::Int(self.ticks))
    }
    fn restore(&mut self, _snapshot: &StateSnapshot) -> Result<(), StateError> {
        if self.version >= 2 {
            return Err(StateError::SchemaMismatch("v2 cannot decode v1".into()));
        }
        Ok(())
    }
}

/// `src → [wire, retrying] → mid → [tail] → end`, with ticks scheduled
/// every 5 ms into `src` and every 10 ms straight into `mid` for the
/// first virtual second — all of them armed before any plan runs.
fn fixture() -> Runtime {
    let mut registry = ImplementationRegistry::new();
    registry.register("Fwd", 1, |_| Box::new(Fwd::default()));
    for version in [1, 2] {
        registry.register("Count", version, move |_| {
            Box::new(Count { version, ticks: 0 })
        });
    }
    let topo = Topology::clique(4, 2000.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, 1405, registry);
    let mut cfg = Configuration::new();
    cfg.component("src", ComponentDecl::new("Fwd", 1, NodeId(0)));
    cfg.component("mid", ComponentDecl::new("Fwd", 1, NodeId(1)));
    cfg.component("end", ComponentDecl::new("Count", 1, NodeId(2)));
    cfg.connector(
        ConnectorSpec::direct("wire").with_retry(RetryPolicy::new(3, SimDuration::from_millis(10))),
    );
    cfg.connector(ConnectorSpec::direct("tail"));
    cfg.bind(BindingDecl::new("src", "out", "wire", "mid", "in"));
    cfg.bind(BindingDecl::new("mid", "out", "tail", "end", "in"));
    rt.deploy(&cfg).expect("deploy");
    for i in 0..200u64 {
        rt.inject_after(
            SimDuration::from_millis(5 * i),
            "src",
            Message::event("tick", Value::Null),
        )
        .expect("src exists");
    }
    for i in 0..100u64 {
        let direct = Value::map([("direct", Value::Bool(true))]);
        rt.inject_after(
            SimDuration::from_millis(10 * i + 1),
            "mid",
            Message::event("tick", direct),
        )
        .expect("mid exists");
    }
    rt
}

/// Replaces `mid` by a fresh `Fwd` named `successor` on node 3, rewiring
/// both bindings to it.
fn replace_mid(successor: &str) -> ReconfigPlan {
    let mut plan = ReconfigPlan::new();
    for action in [
        ReconfigAction::Unbind {
            from: ("src".into(), "out".into()),
        },
        ReconfigAction::Unbind {
            from: ("mid".into(), "out".into()),
        },
        ReconfigAction::RemoveComponent { name: "mid".into() },
        ReconfigAction::AddComponent {
            name: successor.into(),
            decl: ComponentDecl::new("Fwd", 1, NodeId(3)),
        },
        ReconfigAction::Bind(BindingDecl::new("src", "out", "wire", successor, "in")),
        ReconfigAction::Bind(BindingDecl::new(successor, "out", "tail", "end", "in")),
    ] {
        plan.push(action);
    }
    plan
}

/// Everything the cases compare: plan outcomes, runtime and kernel
/// counts, per-instance counts and state, and the graph.
fn trace(rt: &mut Runtime) -> String {
    rt.run_until(SimTime::from_secs(3));
    let mut out = String::new();
    for r in rt.reports() {
        let _ = writeln!(
            out,
            "plan {}: success={} applied={} held={} failure={:?}",
            r.id, r.success, r.actions_applied, r.messages_held, r.failure
        );
    }
    let m = rt.metrics();
    let _ = writeln!(
        out,
        "runtime: delivered={} dropped={} unrouted={} retries={}",
        m.delivered, m.dropped, m.unrouted, m.retries
    );
    let k = rt.kernel_counters();
    let _ = writeln!(
        out,
        "kernel: sent={} delivered={} dropped={} held={} released={}",
        k.get("sent"),
        k.get("delivered"),
        k.get("dropped"),
        k.get("held"),
        k.get("released")
    );
    let no_instance = rt
        .obs()
        .metrics
        .snapshot()
        .counter("runtime.dropped.unaddressed")
        .unwrap_or(0);
    let _ = writeln!(out, "no-instance drops: {no_instance}");
    for c in &rt.observe().components {
        let _ = writeln!(
            out,
            "{} on {}: processed={} anomalies={}",
            c.name, c.node, c.processed, c.seq_anomalies
        );
    }
    out.push_str(&rt.state_fingerprint());
    out.push_str(&rt.graph_fingerprint());
    out
}

fn field(trace: &str, line_prefix: &str, key: &str) -> i64 {
    let line = trace
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .unwrap_or_else(|| panic!("no `{line_prefix}` line in\n{trace}"));
    let tail = &line[line.find(key).expect("key") + key.len()..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("count")
}

#[test]
fn a_same_name_successor_receives_what_was_addressed_to_the_name() {
    let mut rt = fixture();
    rt.run_until(SimTime::from_millis(300));
    rt.request_reconfig(replace_mid("mid"));
    let t = trace(&mut rt);
    // The injections armed for `mid` before the plan keep landing on the
    // instance that bears the name afterwards.
    assert!(field(&t, "state mid:", "\"direct\": Int(") > 0, "{t}");
    assert_eq!(t, EXPECT_SAME_NAME, "\n{t}");
}

#[test]
fn b_differently_named_successor_receives_nothing_addressed_to_the_old_name() {
    let mut rt = fixture();
    rt.run_until(SimTime::from_millis(300));
    rt.request_reconfig(replace_mid("mid2"));
    let t = trace(&mut rt);
    // `mid2` takes over the bindings, never the old name's own traffic.
    assert!(field(&t, "state mid2:", "\"seen\": Int(") > 0, "{t}");
    assert_eq!(field(&t, "state mid2:", "\"direct\": Int("), 0, "{t}");
    assert_eq!(t, EXPECT_OTHER_NAME, "\n{t}");
}

#[test]
fn c_pending_retries_resolve_the_connector_that_bears_the_name_now() {
    let mut rt = fixture();
    let mut outage = FaultSchedule::new();
    outage.at(SimTime::from_millis(300), FaultKind::NodeCrash(NodeId(1)));
    outage.at(SimTime::from_millis(420), FaultKind::NodeRecover(NodeId(1)));
    rt.inject_faults(outage);
    rt.run_until(SimTime::from_millis(320));
    // Retries of the three-attempt `wire` are pending; its successor
    // allows eight, which is what carries them across the outage.
    let patient =
        ConnectorSpec::direct("wire").with_retry(RetryPolicy::new(8, SimDuration::from_millis(10)));
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapConnector {
        name: "wire".into(),
        spec: patient,
    }));
    let t = trace(&mut rt);
    assert_eq!(t, EXPECT_SWAPPED_CONNECTOR, "\n{t}");
}

#[test]
fn d_rolled_back_plan_hands_held_traffic_back_to_the_original() {
    let mut rt = fixture();
    rt.run_until(SimTime::from_millis(300));
    let before = rt.graph_fingerprint();
    let mut plan = replace_mid("mid2");
    plan.push(ReconfigAction::SwapImplementation {
        name: "end".into(),
        type_name: "Count".into(),
        version: 2,
        transfer: StateTransfer::Snapshot,
    });
    rt.request_reconfig(plan);
    let t = trace(&mut rt);
    assert_eq!(rt.graph_fingerprint(), before, "rollback is exact");
    assert_eq!(t, EXPECT_ROLLED_BACK, "\n{t}");
}

const EXPECT_SAME_NAME: &str = "\
plan reconfig1: success=true applied=6 held=0 failure=None\n\
runtime: delivered=797 dropped=1 unrouted=1 retries=0\n\
kernel: sent=798 delivered=797 dropped=1 held=1 released=1\n\
no-instance drops: 0\n\
end on node2: processed=298 anomalies=0\n\
mid on node3: processed=209 anomalies=91\n\
src on node0: processed=200 anomalies=0\n\
state end: StateSnapshot { type_name: \"Count\", version: 1, state: Map({\"ticks\": Int(298)}) }\n\
state mid: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(69), \"seen\": Int(209)}) }\n\
state src: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(0), \"seen\": Int(200)}) }\n\
component end: Count v1 on node2\n\
component mid: Fwd v1 on node3\n\
component src: Fwd v1 on node0\n\
connector tail: ConnectorSpec { name: \"tail\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: None }\n\
connector wire: ConnectorSpec { name: \"wire\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: Some(RetryPolicy { max_attempts: 3, base_delay: SimDuration(10000), multiplier: 2.0 }) }\n\
binding mid.out via tail -> [(\"end\", \"in\")]\n\
binding src.out via wire -> [(\"mid\", \"in\")]\n\
";
const EXPECT_OTHER_NAME: &str = "\
plan reconfig1: success=true applied=6 held=0 failure=None\n\
runtime: delivered=659 dropped=70 unrouted=1 retries=0\n\
kernel: sent=660 delivered=659 dropped=1 held=1 released=1\n\
no-instance drops: 69\n\
end on node2: processed=229 anomalies=0\n\
mid2 on node3: processed=140 anomalies=0\n\
src on node0: processed=200 anomalies=0\n\
state end: StateSnapshot { type_name: \"Count\", version: 1, state: Map({\"ticks\": Int(229)}) }\n\
state mid2: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(0), \"seen\": Int(140)}) }\n\
state src: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(0), \"seen\": Int(200)}) }\n\
component end: Count v1 on node2\n\
component mid2: Fwd v1 on node3\n\
component src: Fwd v1 on node0\n\
connector tail: ConnectorSpec { name: \"tail\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: None }\n\
connector wire: ConnectorSpec { name: \"wire\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: Some(RetryPolicy { max_attempts: 3, base_delay: SimDuration(10000), multiplier: 2.0 }) }\n\
binding mid2.out via tail -> [(\"end\", \"in\")]\n\
binding src.out via wire -> [(\"mid2\", \"in\")]\n\
";
const EXPECT_SWAPPED_CONNECTOR: &str = "\
plan reconfig1: success=true applied=1 held=0 failure=None\n\
runtime: delivered=775 dropped=87 unrouted=0 retries=74\n\
kernel: sent=775 delivered=775 dropped=86 held=0 released=0\n\
no-instance drops: 0\n\
end on node2: processed=287 anomalies=0\n\
mid on node1: processed=287 anomalies=55\n\
src on node0: processed=200 anomalies=0\n\
state end: StateSnapshot { type_name: \"Count\", version: 1, state: Map({\"ticks\": Int(287)}) }\n\
state mid: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(88), \"seen\": Int(287)}) }\n\
state src: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(0), \"seen\": Int(200)}) }\n\
component end: Count v1 on node2\n\
component mid: Fwd v1 on node1\n\
component src: Fwd v1 on node0\n\
connector tail: ConnectorSpec { name: \"tail\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: None }\n\
connector wire: ConnectorSpec { name: \"wire\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: Some(RetryPolicy { max_attempts: 8, base_delay: SimDuration(10000), multiplier: 2.0 }) }\n\
binding mid.out via tail -> [(\"end\", \"in\")]\n\
binding src.out via wire -> [(\"mid\", \"in\")]\n\
";
const EXPECT_ROLLED_BACK: &str = "\
plan reconfig1: success=false applied=0 held=1 failure=Some(\"swap end -> Count v2 (strong): reconfiguration action swap-implementation failed: snapshot schema mismatch: v2 cannot decode v1\")\n\
runtime: delivered=799 dropped=0 unrouted=1 retries=0\n\
kernel: sent=799 delivered=799 dropped=0 held=1 released=1\n\
no-instance drops: 0\n\
end on node2: processed=299 anomalies=0\n\
mid on node1: processed=300 anomalies=0\n\
src on node0: processed=200 anomalies=0\n\
state end: StateSnapshot { type_name: \"Count\", version: 1, state: Map({\"ticks\": Int(299)}) }\n\
state mid: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(100), \"seen\": Int(300)}) }\n\
state src: StateSnapshot { type_name: \"Fwd\", version: 1, state: Map({\"direct\": Int(0), \"seen\": Int(200)}) }\n\
component end: Count v1 on node2\n\
component mid: Fwd v1 on node1\n\
component src: Fwd v1 on node0\n\
connector tail: ConnectorSpec { name: \"tail\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: None }\n\
connector wire: ConnectorSpec { name: \"wire\", policy: Direct, aspects: [], protocol: None, base_cost: 0.01, retry: Some(RetryPolicy { max_attempts: 3, base_delay: SimDuration(10000), multiplier: 2.0 }) }\n\
binding mid.out via tail -> [(\"end\", \"in\")]\n\
binding src.out via wire -> [(\"mid\", \"in\")]\n\
";
