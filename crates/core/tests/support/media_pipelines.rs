//! The deployment the allocation-budget and footprint tests share,
//! included by path from the test files that use it.

use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::message::{Message, Value};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;
use aas_telecom::services::register_telecom_components;

/// Sessions started on every source: the frames of one tick a pipeline.
pub const SESSIONS: u64 = 4;

/// `pipelines` source → transcoder → sink chains of four sessions each on
/// one runtime, sources, transcoders and sinks on a node each, every
/// session started and nothing run yet.
pub fn deploy(pipelines: u64) -> Runtime {
    let mut rt = deploy_idle(pipelines);
    for i in 0..pipelines {
        let src = format!("src{i}");
        rt.inject(&src, Message::event("init", Value::Null))
            .unwrap();
        for _ in 0..SESSIONS {
            rt.inject(&src, Message::event("session_start", Value::Null))
                .unwrap();
        }
    }
    rt
}

/// [`deploy`]'s chains with no source started: nothing is sent.
pub fn deploy_idle(pipelines: u64) -> Runtime {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    // Capacity to spare, so that no frame queues into the next tick.
    let topology = Topology::clique(
        3,
        1000.0 * pipelines as f64,
        SimDuration::from_millis(1),
        1e7,
    );
    let mut rt = Runtime::new(topology, 14, registry);
    let mut cfg = Configuration::new();
    cfg.connector(ConnectorSpec::direct("a"));
    cfg.connector(ConnectorSpec::direct("b"));
    for i in 0..pipelines {
        let mut source = ComponentDecl::new("MediaSource", 1, NodeId(0));
        source.props.insert("level".into(), Value::Int(0));
        cfg.component(format!("src{i}"), source);
        cfg.component(
            format!("tc{i}"),
            ComponentDecl::new("Transcoder", 1, NodeId(1)),
        );
        cfg.component(
            format!("sink{i}"),
            ComponentDecl::new("MediaSink", 1, NodeId(2)),
        );
        cfg.bind(BindingDecl::new(
            format!("src{i}"),
            "out",
            "a",
            format!("tc{i}"),
            "in",
        ));
        cfg.bind(BindingDecl::new(
            format!("tc{i}"),
            "out",
            "b",
            format!("sink{i}"),
            "in",
        ));
    }
    rt.deploy(&cfg).unwrap();
    rt
}
