//! Shared fixtures for the experiment harnesses.

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;
use aas_telecom::services::register_telecom_components;

/// A worker with a configurable per-message cost and a blob of state whose
/// size is set by the `state_bytes` prop — the knob experiments E5/E7 turn.
#[derive(Debug)]
pub struct Worker {
    /// Per-message work units.
    pub cost: f64,
    /// Carried state blob (affects snapshot transfer size).
    pub blob: Vec<u8>,
    /// Messages handled.
    pub handled: i64,
}

impl Worker {
    /// A worker with the given cost and state size.
    #[must_use]
    pub fn new(cost: f64, state_bytes: usize) -> Self {
        Worker {
            cost,
            blob: vec![0xAB; state_bytes],
            handled: 0,
        }
    }
}

impl Component for Worker {
    fn type_name(&self) -> &str {
        "Worker"
    }

    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("work")];
        static WORKER: Interface = Interface::fixed("Worker", &OPS);
        &WORKER
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        if msg.op != "work" {
            return Err(ComponentError::UnsupportedOperation(msg.op));
        }
        self.handled += 1;
        ctx.reply(Value::from(self.handled));
        Ok(())
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Worker", 1)
            .with_field("handled", Value::from(self.handled))
            .with_field("cost", Value::Float(self.cost))
            .with_field("blob", Value::Bytes(self.blob.clone()))
    }

    fn restore(&mut self, snap: &StateSnapshot) -> Result<(), StateError> {
        self.handled = snap.require("handled")?.as_int().unwrap_or(0);
        self.cost = snap.require("cost")?.as_float().unwrap_or(1.0);
        if let Some(Value::Bytes(b)) = snap.field("blob") {
            self.blob = b.clone();
        }
        Ok(())
    }

    fn work_cost(&self, _msg: &Message) -> f64 {
        self.cost
    }
}

/// The registry every experiment uses: telecom components + `Worker`.
#[must_use]
pub fn experiment_registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    r.register("Worker", 1, |props| {
        let cost = props.get("cost").and_then(Value::as_float).unwrap_or(1.0);
        let bytes = props
            .get("state_bytes")
            .and_then(Value::as_int)
            .unwrap_or(0)
            .max(0) as usize;
        Box::new(Worker::new(cost, bytes))
    });
    r
}

/// A runtime over an `n`-node clique with a `source -> coder -> sink`
/// telecom pipeline deployed on the first three nodes (mod n).
#[must_use]
pub fn pipeline_runtime(n: usize, seed: u64) -> Runtime {
    let topo = Topology::clique(n, 1500.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, experiment_registry());
    let mut cfg = Configuration::new();
    cfg.component("source", ComponentDecl::new("MediaSource", 1, NodeId(0)));
    cfg.component(
        "coder",
        ComponentDecl::new("Transcoder", 1, NodeId(1 % n as u32)),
    );
    cfg.component(
        "sink",
        ComponentDecl::new("MediaSink", 1, NodeId(2 % n as u32)),
    );
    cfg.connector(ConnectorSpec::direct("s1"));
    cfg.connector(ConnectorSpec::direct("s2"));
    cfg.bind(BindingDecl::new("source", "out", "s1", "coder", "in"));
    cfg.bind(BindingDecl::new("coder", "out", "s2", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt
}

/// A standard media frame message.
#[must_use]
pub fn frame(bytes: i64, cost: f64) -> Message {
    Message::event(
        "frame",
        Value::map([
            ("bytes", Value::Int(bytes)),
            ("cost", Value::Float(cost)),
            ("quality", Value::Float(1.0)),
        ]),
    )
    .with_size(bytes.max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_sim::time::SimTime;

    #[test]
    fn worker_snapshot_carries_blob() {
        let w = Worker::new(0.5, 1000);
        let snap = w.snapshot();
        assert!(snap.transfer_size() > 1000);
        let mut w2 = Worker::new(1.0, 0);
        w2.restore(&snap).unwrap();
        assert_eq!(w2.blob.len(), 1000);
        assert_eq!(w2.cost, 0.5);
    }

    #[test]
    fn pipeline_runtime_streams() {
        let mut rt = pipeline_runtime(3, 1);
        rt.inject("coder", frame(100, 0.1)).unwrap();
        rt.run_until(SimTime::from_secs(1));
        assert_eq!(rt.observe().component("sink").unwrap().processed, 1);
    }
}
