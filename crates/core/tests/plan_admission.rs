//! The configuration graph's structural rules, asked three ways.
//!
//! A change to the graph is refused by one check per action kind, whether
//! it comes as a plan action that validation simulates, as the same
//! action reaching the transaction's apply step after the graph changed
//! under it, or as a call to the direct structural API (`add_component`,
//! `add_connector`, `add_binding`, `remove_binding`, `adapt_connector`).
//! One table lists every action kind with each rule it can break, on one
//! small deployed graph, and holds all three to one text:
//!
//! - (a) a plan of that one action is rejected, and both the
//!   `plan_rejected` record and the report carry the pinned text;
//! - (b) where the direct API can make the same change, it fails with the
//!   text after the action's own name;
//! - (c) where a direct call can break the rule after validation, a plan
//!   held open by a migration first is validated, the call breaks the
//!   rule, and the plan rolls back with the pinned text, leaving the
//!   graph as the call left it.
//!
//! The pinned texts are the validator's, as it wrote them before the
//! rules had one home.

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::error::{ComponentError, RuntimeError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::lts::{Label, Lts};
use aas_core::message::Message;
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_obs::AuditKind;
use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::time::SimDuration;

/// A part of the test graph. `Wide` serves `frame` and `reset`; `Narrow`
/// only `frame`, so swapping a `Wide` for it breaks its interface;
/// `Picky` publishes a protocol that deadlocks with [`strict`]'s; `Lax`
/// serves what `Picky` serves and publishes no protocol.
#[derive(Debug, Clone, Copy)]
enum Part {
    Wide,
    Narrow,
    Picky,
    Lax,
}

impl Component for Part {
    fn type_name(&self) -> &str {
        match self {
            Part::Wide => "Wide",
            Part::Narrow => "Narrow",
            Part::Picky => "Picky",
            Part::Lax => "Lax",
        }
    }
    fn provided(&self) -> &Interface {
        static WIDE: [Signature; 2] = [Signature::one_way("frame"), Signature::one_way("reset")];
        static NARROW: [Signature; 1] = [Signature::one_way("frame")];
        static PICKY: [Signature; 1] = [Signature::one_way("request")];
        static IFACES: [Interface; 4] = [
            Interface::fixed("Wide", &WIDE),
            Interface::fixed("Narrow", &NARROW),
            Interface::fixed("Picky", &PICKY),
            Interface::fixed("Lax", &PICKY),
        ];
        &IFACES[*self as usize]
    }
    fn on_message(&mut self, _: &mut CallCtx, _: Message) -> Result<(), ComponentError> {
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new(self.type_name(), 1)
    }
    fn restore(&mut self, _: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
    fn protocol(&self) -> Option<Lts> {
        let Part::Picky = self else {
            return None;
        };
        // Demands `hello` before it serves a `request`.
        let mut l = Lts::new("picky");
        let s0 = l.add_state("hello-first");
        let s1 = l.add_state("serving");
        l.set_initial(s0);
        l.mark_final(s1);
        l.add_transition(s0, Label::recv("hello"), s1);
        l.add_transition(s1, Label::recv("request"), s1);
        Some(l)
    }
}

/// A connector that hands over `hello` only after a `request`: each side
/// waits for the other when it mediates a [`Part::Picky`].
fn strict(name: &str) -> ConnectorSpec {
    let mut l = Lts::new("strict");
    let c0 = l.add_state("start");
    let c1 = l.add_state("after-request");
    l.set_initial(c0);
    l.mark_final(c0);
    l.add_transition(c0, Label::send("request"), c1);
    l.add_transition(c1, Label::send("hello"), c0);
    ConnectorSpec::direct(name).with_protocol(l)
}

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    for part in [Part::Wide, Part::Narrow, Part::Picky, Part::Lax] {
        r.register(part.type_name().to_owned(), 1, move |_| Box::new(part));
    }
    r
}

/// Nodes 0–2 are a clique; node 3 has no capacity at all. `src` feeds
/// `dst` over `wire`; `idle`, `holder`, `picky` and `lax` are unbound;
/// `spare` mediates nothing and `strict` deadlocks with `picky`.
fn base() -> Runtime {
    let mut topo = Topology::clique(3, 1000.0, SimDuration::from_millis(2), 1e7);
    topo.add_node(NodeSpec::new("n3", 0.0));
    let mut rt = Runtime::new(topo, 7, registry());
    let mut cfg = Configuration::new();
    cfg.component("src", ComponentDecl::new("Wide", 1, NodeId(0)));
    cfg.component("dst", ComponentDecl::new("Wide", 1, NodeId(1)));
    cfg.component("idle", ComponentDecl::new("Wide", 1, NodeId(0)));
    cfg.component("holder", ComponentDecl::new("Wide", 1, NodeId(0)));
    cfg.component("picky", ComponentDecl::new("Picky", 1, NodeId(1)));
    cfg.component("lax", ComponentDecl::new("Lax", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.connector(ConnectorSpec::direct("spare"));
    cfg.connector(strict("strict"));
    cfg.bind(BindingDecl::new("src", "out", "wire", "dst", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt
}

type Call = fn(&mut Runtime) -> Result<(), RuntimeError>;

struct Row {
    action: ReconfigAction,
    /// The direct call that breaks the rule, where the base graph keeps
    /// it.
    conflict: Option<Call>,
    /// The same change through the direct structural API.
    direct: Option<Call>,
    /// The `plan_rejected` reason, as the validator wrote it.
    pinned: &'static str,
}

fn add(name: &str, type_name: &str, node: u32) -> ReconfigAction {
    ReconfigAction::AddComponent {
        name: name.into(),
        decl: ComponentDecl::new(type_name, 1, NodeId(node)),
    }
}

fn swap(name: &str, type_name: &str) -> ReconfigAction {
    ReconfigAction::SwapImplementation {
        name: name.into(),
        type_name: type_name.into(),
        version: 1,
        transfer: StateTransfer::None,
    }
}

fn migrate(name: &str, to: u32) -> ReconfigAction {
    ReconfigAction::Migrate {
        name: name.into(),
        to: NodeId(to),
    }
}

fn bind(from: &str, via: &str, to: &str) -> ReconfigAction {
    ReconfigAction::Bind(BindingDecl::new(from, "out", via, to, "in"))
}

fn unbind(from: &str) -> ReconfigAction {
    ReconfigAction::Unbind {
        from: (from.into(), "out".into()),
    }
}

fn table() -> Vec<Row> {
    let row = |action, conflict, direct, pinned| Row {
        action,
        conflict,
        direct,
        pinned,
    };
    vec![
        row(
            add("extra", "Wide", 0),
            Some(|rt| rt.add_component("extra", &ComponentDecl::new("Wide", 1, NodeId(2)))),
            Some(|rt| rt.add_component("extra", &ComponentDecl::new("Wide", 1, NodeId(0)))),
            "add extra (Wide v1) on node0: component `extra` already exists",
        ),
        row(
            add("extra", "Wide", 9),
            None,
            Some(|rt| rt.add_component("extra", &ComponentDecl::new("Wide", 1, NodeId(9)))),
            "add extra (Wide v1) on node9: node `node9` unavailable",
        ),
        row(
            add("extra", "Nope", 0),
            None,
            Some(|rt| rt.add_component("extra", &ComponentDecl::new("Nope", 1, NodeId(0)))),
            "add extra (Nope v1) on node0: unknown implementation `Nope` v1",
        ),
        row(
            ReconfigAction::RemoveComponent {
                name: "ghost".into(),
            },
            None,
            None,
            "remove ghost: unknown component `ghost`",
        ),
        row(
            ReconfigAction::RemoveComponent {
                name: "idle".into(),
            },
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "spare", "dst", "in"))),
            None,
            "remove idle: component `idle` still has bindings",
        ),
        row(
            ReconfigAction::RemoveComponent {
                name: "idle".into(),
            },
            Some(|rt| rt.add_binding(BindingDecl::new("dst", "out", "spare", "idle", "in"))),
            None,
            "remove idle: component `idle` still has bindings",
        ),
        row(
            swap("ghost", "Wide"),
            None,
            None,
            "swap ghost -> Wide v1 (weak): unknown component `ghost`",
        ),
        row(
            swap("idle", "Nope"),
            None,
            None,
            "swap idle -> Nope v1 (weak): unknown implementation `Nope` v1",
        ),
        row(
            swap("idle", "Narrow"),
            None,
            None,
            "swap idle -> Narrow v1 (weak): incompatible interface: operation `reset` removed",
        ),
        row(
            swap("lax", "Picky"),
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "strict", "lax", "in"))),
            None,
            "swap lax -> Picky v1 (weak): incompatible protocols between connector `strict` and `lax`",
        ),
        row(
            migrate("ghost", 1),
            None,
            None,
            "migrate ghost -> node1: unknown component `ghost`",
        ),
        row(
            migrate("idle", 9),
            None,
            None,
            "migrate idle -> node9: node `node9` unavailable",
        ),
        row(
            migrate("idle", 2),
            Some(|rt| {
                let mut crash = FaultSchedule::new();
                crash.at(rt.now(), FaultKind::NodeCrash(NodeId(2)));
                rt.inject_faults(crash);
                Ok(())
            }),
            None,
            "migrate idle -> node2: node `node2` unavailable",
        ),
        row(
            migrate("idle", 3),
            None,
            None,
            "migrate idle -> node3: target `node3` has no effective capacity",
        ),
        row(
            ReconfigAction::AddConnector {
                name: "extra".into(),
                spec: ConnectorSpec::direct("extra"),
            },
            Some(|rt| rt.add_connector(ConnectorSpec::direct("extra"))),
            Some(|rt| rt.add_connector(ConnectorSpec::direct("extra"))),
            "add connector extra: connector `extra` already exists",
        ),
        row(
            ReconfigAction::RemoveConnector {
                name: "ghost".into(),
            },
            None,
            None,
            "remove connector ghost: unknown connector `ghost`",
        ),
        row(
            ReconfigAction::RemoveConnector {
                name: "spare".into(),
            },
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "spare", "dst", "in"))),
            None,
            "remove connector spare: connector `spare` still in use",
        ),
        row(
            ReconfigAction::SwapConnector {
                name: "ghost".into(),
                spec: ConnectorSpec::direct("ghost"),
            },
            None,
            Some(|rt| rt.adapt_connector("ghost", ConnectorSpec::direct("ghost"))),
            "swap connector ghost: unknown connector `ghost`",
        ),
        row(
            ReconfigAction::SwapConnector {
                name: "spare".into(),
                spec: strict("spare"),
            },
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "spare", "picky", "in"))),
            Some(|rt| rt.adapt_connector("spare", strict("spare"))),
            "swap connector spare: incompatible protocols between connector `spare` and `picky`",
        ),
        row(
            bind("ghost", "spare", "dst"),
            None,
            Some(|rt| rt.add_binding(BindingDecl::new("ghost", "out", "spare", "dst", "in"))),
            "bind ghost.out -[spare]-> dst.in: unknown component `ghost`",
        ),
        row(
            bind("idle", "ghost", "dst"),
            None,
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "ghost", "dst", "in"))),
            "bind idle.out -[ghost]-> dst.in: unknown connector `ghost`",
        ),
        row(
            bind("idle", "spare", "dst"),
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "wire", "dst", "in"))),
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "spare", "dst", "in"))),
            "bind idle.out -[spare]-> dst.in: port `idle.out` already bound",
        ),
        row(
            bind("idle", "spare", "ghost"),
            None,
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "spare", "ghost", "in"))),
            "bind idle.out -[spare]-> ghost.in: unknown component `ghost`",
        ),
        row(
            bind("idle", "strict", "picky"),
            None,
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "strict", "picky", "in"))),
            "bind idle.out -[strict]-> picky.in: incompatible protocols between connector `strict` and `picky`",
        ),
        row(
            bind("idle", "spare", "picky"),
            Some(|rt| rt.adapt_connector("spare", strict("spare"))),
            Some(|rt| rt.add_binding(BindingDecl::new("idle", "out", "spare", "picky", "in"))),
            "bind idle.out -[spare]-> picky.in: incompatible protocols between connector `spare` and `picky`",
        ),
        row(
            unbind("idle"),
            None,
            Some(|rt| rt.remove_binding(&("idle".into(), "out".into()))),
            "unbind idle.out: no binding at `idle.out`",
        ),
        row(
            unbind("src"),
            Some(|rt| rt.remove_binding(&("src".into(), "out".into()))),
            Some(|rt| rt.remove_binding(&("src".into(), "out".into()))),
            "unbind src.out: no binding at `src.out`",
        ),
    ]
}

/// The base graph with `row`'s rule broken, settled.
fn broken(row: &Row) -> Runtime {
    let mut rt = base();
    if let Some(conflict) = row.conflict {
        conflict(&mut rt).expect("the conflicting call succeeds on the base graph");
    }
    rt.run_for(SimDuration::from_millis(1));
    rt
}

fn reasons(rt: &Runtime, kind: AuditKind) -> Vec<String> {
    rt.obs()
        .audit
        .of_kind(kind)
        .iter()
        .map(|e| e.outcome())
        .collect()
}

#[test]
fn every_action_kind_has_a_row() {
    let kinds: std::collections::BTreeSet<_> = table().iter().map(|r| r.action.kind()).collect();
    assert_eq!(kinds.len(), 9, "{kinds:?}");
}

#[test]
fn a_plan_breaking_a_rule_is_rejected_with_the_pinned_text() {
    for row in table() {
        let mut rt = broken(&row);
        let graph = rt.graph_fingerprint();
        let id = rt.request_reconfig(ReconfigPlan::single(row.action.clone()));
        let report = rt.reports().iter().find(|r| r.id == id).expect("ended");
        let failure = format!("rejected: {}", row.pinned);
        assert_eq!(report.failure.as_deref(), Some(failure.as_str()));
        assert_eq!(reasons(&rt, AuditKind::PlanRejected), [row.pinned]);
        assert_eq!(rt.graph_fingerprint(), graph, "{}", row.pinned);
        assert!(rt.check_settled().is_empty(), "{:?}", rt.check_settled());
    }
}

#[test]
fn the_direct_api_refuses_the_same_change_with_the_same_text() {
    for row in table() {
        let Some(direct) = row.direct else {
            continue;
        };
        let mut rt = broken(&row);
        let graph = rt.graph_fingerprint();
        let err = direct(&mut rt).expect_err(row.pinned);
        let prefix = format!("{}: ", row.action);
        assert_eq!(
            Some(err.to_string().as_str()),
            row.pinned.strip_prefix(&prefix)
        );
        assert_eq!(rt.graph_fingerprint(), graph, "{}", row.pinned);
    }
}

#[test]
fn a_rule_broken_after_validation_rolls_the_plan_back_with_the_pinned_text() {
    for row in table() {
        let Some(conflict) = row.conflict else {
            continue;
        };
        let mut expected = base();
        conflict(&mut expected).expect("the conflicting call succeeds on the base graph");
        expected.run_for(SimDuration::from_millis(1));

        let mut rt = base();
        let plan: ReconfigPlan = [migrate("holder", 1), row.action.clone()]
            .into_iter()
            .collect();
        let id = rt.request_reconfig(plan);
        assert!(
            rt.reconfig_in_progress(),
            "the migration holds the plan open"
        );
        assert_eq!(rt.obs().audit.of_kind(AuditKind::PlanValidated).len(), 1);
        conflict(&mut rt).expect("the conflicting call succeeds mid-plan");
        rt.run_for(SimDuration::from_secs(1));

        let report = rt.reports().iter().find(|r| r.id == id).expect("ended");
        assert_eq!(report.failure.as_deref(), Some(row.pinned));
        assert_eq!(report.actions_applied, 0);
        assert!(reasons(&rt, AuditKind::PlanRejected).is_empty());
        assert_eq!(reasons(&rt, AuditKind::PlanRolledBack), [row.pinned]);
        assert_eq!(
            rt.graph_fingerprint(),
            expected.graph_fingerprint(),
            "{}",
            row.pinned
        );
        assert!(rt.check_settled().is_empty(), "{:?}", rt.check_settled());
    }
}
