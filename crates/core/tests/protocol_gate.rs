//! The protocol gate over generated protocol pairs: a bind, a connector
//! swap (direct or planned) and an implementation swap each commit if and
//! only if `check_compatibility` passes for every connector–target pair
//! the edit makes, so bind and swap agree on every pair.

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl};
use aas_core::connector::ConnectorSpec;
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::lts::{check_compatibility, Dir, Label, Lts};
use aas_core::message::Message;
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;
use proptest::prelude::*;

/// A component that serves `go` and publishes `protocol`, if any.
#[derive(Debug, Clone)]
struct Part {
    protocol: Option<Lts>,
}

impl Component for Part {
    fn type_name(&self) -> &str {
        "Part"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("go")];
        static IFACE: Interface = Interface::fixed("Part", &OPS);
        &IFACE
    }
    fn on_message(&mut self, _: &mut CallCtx, _: Message) -> Result<(), ComponentError> {
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Part", 1)
    }
    fn restore(&mut self, _: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
    fn protocol(&self) -> Option<Lts> {
        self.protocol.clone()
    }
}

/// An LTS of one to three states over the actions `a`, `b` and `c`, each
/// sent or received, initial state 0, with a random set of final states.
fn lts(name: &'static str) -> impl Strategy<Value = Lts> {
    let edge = (0usize..3, 0usize..3, prop::bool::ANY, 0usize..3);
    let shape = (
        1usize..4,
        prop::collection::vec(edge, 0..6),
        prop::collection::vec(prop::bool::ANY, 3),
    );
    shape.prop_map(move |(n, edges, finals)| {
        let mut l = Lts::new(name);
        let states: Vec<_> = (0..n).map(|i| l.add_state(format!("s{i}"))).collect();
        l.set_initial(states[0]);
        for (state, _) in states.iter().zip(&finals).filter(|(_, f)| **f) {
            l.mark_final(*state);
        }
        for (from, action, send, to) in edges {
            let action = ["a", "b", "c"][action];
            let dir = if send { Dir::Send } else { Dir::Recv };
            let label = Label {
                action: action.into(),
                dir,
            };
            l.add_transition(states[from % n], label, states[to % n]);
        }
        l
    })
}

fn spec(name: &str, protocol: Option<&Lts>) -> ConnectorSpec {
    let spec = ConnectorSpec::direct(name);
    match protocol {
        Some(p) => spec.with_protocol(p.clone()),
        None => spec,
    }
}

/// `src` and, on node 1, `t1` and `t2`, each a [`Part`] of the type
/// named: `Free` publishes no protocol, `P1` and `P2` publish `p1` and
/// `p2`. `wire` carries `conn`'s protocol, if any; nothing is bound.
fn runtime(t1: &str, t2: &str, conn: Option<&Lts>, p1: &Lts, p2: &Lts) -> Runtime {
    let mut reg = ImplementationRegistry::new();
    for (type_name, protocol) in [("Free", None), ("P1", Some(p1)), ("P2", Some(p2))] {
        let part = Part {
            protocol: protocol.cloned(),
        };
        reg.register(type_name, 1, move |_| Box::new(part.clone()));
    }
    let topo = Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6);
    let mut rt = Runtime::new(topo, 1, reg);
    for (name, type_name, node) in [("src", "Free", 0), ("t1", t1, 1), ("t2", t2, 1)] {
        rt.add_component(name, &ComponentDecl::new(type_name, 1, NodeId(node)))
            .expect("add");
    }
    rt.add_connector(spec("wire", conn)).expect("connector");
    rt
}

fn binding() -> BindingDecl {
    BindingDecl::new("src", "out", "wire", "t1", "in").also_to("t2", "in")
}

/// Submits the one-action plan `action` and reports whether it committed,
/// having checked that a refused one left the graph as it found it.
fn commits(rt: &mut Runtime, action: ReconfigAction) -> bool {
    let graph = rt.graph_fingerprint();
    rt.request_reconfig(ReconfigPlan::single(action));
    rt.run_for(SimDuration::from_secs(1));
    let success = rt.reports().last().expect("the plan ended").success;
    assert!(
        success || rt.graph_fingerprint() == graph,
        "a refusal changed the graph"
    );
    success
}

#[test]
fn bind_and_every_swap_commit_iff_every_bound_pair_is_compatible() {
    let mut rng = TestRng::deterministic("protocol_gate");
    let (conn, p1, p2) = (lts("conn"), lts("p1"), lts("p2"));
    let mut outcomes = [0u32; 2];
    for case in 0..256 {
        let (c, p1, p2) = (
            conn.generate(&mut rng),
            p1.generate(&mut rng),
            p2.generate(&mut rng),
        );
        let with_p1 = check_compatibility(&c, &p1).is_compatible();
        let both = with_p1 && check_compatibility(&c, &p2).is_compatible();
        outcomes[usize::from(both)] += 1;
        let why = || format!("case {case}: {c:?}\n{p1:?}\n{p2:?}");

        // Bind through a connector that carries the protocol.
        let mut rt = runtime("P1", "P2", Some(&c), &p1, &p2);
        assert_eq!(rt.add_binding(binding()).is_ok(), both, "bind, {}", why());

        // Swap it in, directly and as a plan, under an existing binding.
        let swap = || ReconfigAction::SwapConnector {
            name: "wire".into(),
            spec: spec("wire", Some(&c)),
        };
        let mut rt = runtime("P1", "P2", None, &p1, &p2);
        rt.add_binding(binding()).expect("a protocol-free bind");
        let direct = rt.adapt_connector("wire", spec("wire", Some(&c)));
        assert_eq!(direct.is_ok(), both, "adapt_connector, {}", why());
        let mut rt = runtime("P1", "P2", None, &p1, &p2);
        rt.add_binding(binding()).expect("a protocol-free bind");
        assert_eq!(commits(&mut rt, swap()), both, "swap plan, {}", why());

        // Swap `t1`'s implementation for one that publishes `p1`.
        let mut rt = runtime("Free", "Free", Some(&c), &p1, &p2);
        rt.add_binding(binding()).expect("a protocol-free bind");
        let to_p1 = ReconfigAction::SwapImplementation {
            name: "t1".into(),
            type_name: "P1".into(),
            version: 1,
            transfer: StateTransfer::None,
        };
        assert_eq!(
            commits(&mut rt, to_p1),
            with_p1,
            "implementation swap, {}",
            why()
        );
    }
    // Both verdicts are common, so each side of every "iff" was tried.
    assert!(outcomes.iter().all(|n| *n >= 32), "{outcomes:?}");
}
