//! `Runtime::observe()` answers what it answered before it stopped
//! copying the system.
//!
//! One seeded storm on a six-node clique — four metered, sequence-checked
//! media pipelines, the failure detector, `FailoverMigrate`, one
//! transcoder host crashing and recovering — is observed at three
//! instants: under load before the crash, after the failover moved the
//! victim's transcoders (so `hosted` has moved), and after the host came
//! back. The `Debug` rendering of the three snapshots (floats print
//! round-trip, so every mean and p99 is held to the bit) was recorded at
//! `e2b94c6`, where `observe()` copied every histogram and scanned the
//! instance table once per node. There each node listed the components it
//! hosted and each component held a map of its custom means; the snapshot
//! now keeps neither list, so [`AsRecorded`] lays them out again where
//! `{:#?}` printed them.

use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::raml::{ComponentObservation, NodeObservation, SystemSnapshot};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::fault::FaultSchedule;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use std::fmt::{self, Write as _};

const PIPELINES: usize = 4;
const MONITOR: NodeId = NodeId(0);
/// Hosts `tc0` and `tc2`; `tc1` and `tc3` sit on node 3.
const VICTIM: NodeId = NodeId(2);

fn deployment() -> Runtime {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let topo = Topology::clique(6, 14.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, 19, registry);
    let mut cfg = Configuration::new();
    cfg.connector(
        ConnectorSpec::direct("wire")
            .with_aspect(ConnectorAspect::Metering)
            .with_aspect(ConnectorAspect::SequenceCheck),
    );
    cfg.connector(ConnectorSpec::direct("plain"));
    // Idle, on the coolest node: the failover lands its transcoders around
    // it in name order.
    cfg.component("tc1_spare", ComponentDecl::new("Transcoder", 1, MONITOR));
    for i in 0..PIPELINES {
        let mut source = ComponentDecl::new("MediaSource", 1, NodeId(1));
        source.props.insert("level".into(), Value::Int(0));
        cfg.component(format!("src{i}"), source);
        cfg.component(
            format!("tc{i}"),
            ComponentDecl::new("Transcoder", 1, NodeId(2 + (i % 2) as u32)),
        );
        cfg.component(
            format!("sink{i}"),
            ComponentDecl::new("MediaSink", 1, NodeId(4 + (i / 2) as u32)),
        );
        let via = if i == 3 { "plain" } else { "wire" };
        cfg.bind(BindingDecl::new(
            format!("src{i}"),
            "out",
            via,
            format!("tc{i}"),
            "in",
        ));
        cfg.bind(BindingDecl::new(
            format!("tc{i}"),
            "out",
            via,
            format!("sink{i}"),
            "in",
        ));
    }
    rt.deploy(&cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        MONITOR,
    ));
    let mut faults = FaultSchedule::new();
    faults.node_outage(VICTIM, SimTime::from_secs(2), SimTime::from_secs(4));
    rt.inject_faults(faults);
    for i in 0..PIPELINES {
        let src = format!("src{i}");
        rt.inject(&src, Message::event("init", Value::Null))
            .expect("inject");
        for _ in 0..=i {
            rt.inject(&src, Message::event("session_start", Value::Null))
                .expect("inject");
        }
    }
    rt
}

/// A snapshot rendered in the layout `{:#?}` gave it at `e2b94c6`.
struct AsRecorded<'a>(&'a SystemSnapshot);

/// A component with its custom means as a map under it.
struct WithCustom<'a>(&'a SystemSnapshot, &'a ComponentObservation);

/// A node with the names of the components it hosts under it.
struct WithHosted<'a>(&'a SystemSnapshot, &'a NodeObservation);

impl fmt::Debug for AsRecorded<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.0;
        let components: Vec<_> = snap
            .components
            .iter()
            .map(|c| WithCustom(snap, c))
            .collect();
        let nodes: Vec<_> = snap.nodes.iter().map(|n| WithHosted(snap, n)).collect();
        f.debug_struct("SystemSnapshot")
            .field("at", &snap.at)
            .field("components", &components)
            .field("nodes", &nodes)
            .field("connectors", &snap.connectors)
            .field("delivered", &snap.delivered)
            .field("dropped", &snap.dropped)
            .finish()
    }
}

impl fmt::Debug for WithCustom<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Means<'a>(&'a SystemSnapshot, &'a str);
        impl fmt::Debug for Means<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let own = self.0.custom.iter().filter(|m| m.component == self.1);
                f.debug_map()
                    .entries(own.map(|m| (&m.metric, m.mean)))
                    .finish()
            }
        }
        let (snap, c) = (self.0, self.1);
        f.debug_struct("ComponentObservation")
            .field("name", &c.name)
            .field("type_name", &c.type_name)
            .field("version", &c.version)
            .field("node", &c.node)
            .field("lifecycle", &c.lifecycle)
            .field("inflight", &c.inflight)
            .field("processed", &c.processed)
            .field("errors", &c.errors)
            .field("mean_latency_ms", &c.mean_latency_ms)
            .field("p99_latency_ms", &c.p99_latency_ms)
            .field("seq_anomalies", &c.seq_anomalies)
            .field("custom", &Means(snap, &c.name))
            .finish()
    }
}

impl fmt::Debug for WithHosted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (snap, n) = (self.0, self.1);
        let hosted: Vec<_> = snap.hosted(n.id).map(|c| &c.name).collect();
        f.debug_struct("NodeObservation")
            .field("id", &n.id)
            .field("up", &n.up)
            .field("utilization", &n.utilization)
            .field("backlog_ms", &n.backlog_ms)
            .field("effective_capacity", &n.effective_capacity)
            .field("hosted", &hosted)
            .finish()
    }
}

#[test]
fn observe_renders_as_recorded_before_during_and_after_a_failover() {
    let mut rt = deployment();
    let mut actual = String::new();
    for at in [1_900, 3_000, 6_000] {
        rt.run_until(SimTime::from_millis(at));
        let _ = writeln!(actual, "== {at} ms ==\n{:#?}", AsRecorded(&rt.observe()));
    }

    // The scenario is the one the header describes.
    assert!(
        rt.reports().iter().any(|r| !r.migrated.is_empty()),
        "no failover migrated anything"
    );
    let snap = rt.observe();
    let hosted = |node| {
        snap.hosted(node)
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
    };
    assert!(hosted(VICTIM).is_empty(), "the victim's transcoders moved");
    assert_eq!(hosted(MONITOR), ["tc0", "tc1_spare", "tc2"]);
    assert!(!snap.custom.is_empty());
    assert!(
        snap.connector("wire")
            .expect("wire")
            .mean_metered_latency_ms
            > 0.0
    );

    let recorded = include_str!("observe_equivalence/storm.trace");
    if recorded != actual {
        let path = format!("{}/observe_storm.actual", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, &actual).expect("write the actual trace");
        panic!("observe() differs from the recorded rendering; actual at {path}");
    }
}
