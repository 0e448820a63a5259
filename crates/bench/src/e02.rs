//! E2 — connector overhead.
//!
//! Paper claim (§3): "a connector is a light-weight component which
//! functions as a glue of components and induces a low overload".
//!
//! Harness: the same request stream crosses (a) a bare direct connector,
//! (b) a connector with a full aspect chain, and (c) a compressing
//! connector, across message sizes. We report the round-trip latency each
//! configuration adds over the raw network floor.

use crate::common::{experiment_registry, frame};
use crate::table::{exact, f2, Table, Tier};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{Connector, ConnectorAspect, ConnectorId, ConnectorSpec};
use aas_core::message::{Message, Value};
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

const MESSAGES: u64 = 500;

fn connector_variant(kind: &str) -> ConnectorSpec {
    match kind {
        "direct" => ConnectorSpec::direct("wire").with_base_cost(0.0),
        "glue" => ConnectorSpec::direct("wire"), // default small base cost
        "aspect-chain" => ConnectorSpec::direct("wire")
            .with_aspect(ConnectorAspect::Logging)
            .with_aspect(ConnectorAspect::Metering)
            .with_aspect(ConnectorAspect::SequenceCheck)
            .with_aspect(ConnectorAspect::Encryption { cost: 0.2 }),
        "compressing" => ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Compression {
            ratio: 0.3,
            cost: 0.3,
        }),
        other => panic!("unknown variant {other}"),
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Variant name.
    pub variant: String,
    /// Message payload bytes.
    pub bytes: i64,
    /// Mean end-to-end latency (ms).
    pub mean_ms: f64,
    /// Overhead above the `direct` floor (ms).
    pub overhead_ms: f64,
}

fn measure(kind: &str, bytes: i64) -> f64 {
    let topo = Topology::clique(2, 1500.0, SimDuration::from_millis(2), 1e6);
    let mut rt = Runtime::new(topo, 5, experiment_registry());
    let mut cfg = Configuration::new();
    cfg.component("coder", ComponentDecl::new("Transcoder", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(1)));
    cfg.connector(connector_variant(kind));
    cfg.bind(BindingDecl::new("coder", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");

    let mut t = SimDuration::ZERO;
    for _ in 0..MESSAGES {
        rt.inject_after(t, "coder", frame(bytes, 0.05))
            .expect("inject");
        t += SimDuration::from_millis(20);
    }
    rt.run_until(SimTime::from_secs(60));
    let snap = rt.observe();
    assert_eq!(snap.component("sink").unwrap().processed, MESSAGES);
    snap.component("sink").unwrap().mean_latency_ms
}

/// Runs the sweep.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e02",
        tier,
        "E2: connector overhead — latency added over a direct binding",
        exact(&["payload(B)", "variant", "mean(ms)", "overhead(ms)"]),
    );
    for bytes in [100i64, 10_000, 100_000] {
        let floor = measure("direct", bytes);
        for kind in ["direct", "glue", "aspect-chain", "compressing"] {
            let mean = if kind == "direct" {
                floor
            } else {
                measure(kind, bytes)
            };
            table.row(vec![
                bytes.to_string(),
                kind.to_owned(),
                f2(mean),
                f2(mean - floor),
            ]);
        }
    }
    let msg = Message::request("op", Value::from(1));
    for (name, kind) in [
        ("mediate direct ns", "direct"),
        ("mediate aspect-chain ns", "aspect-chain"),
    ] {
        let mut connector = Connector::new(ConnectorId(0), connector_variant(kind));
        table.note_ns_per_call(name, 200_000, || connector.mediate(&msg, SimTime::ZERO, 1));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glue_overhead_is_small() {
        let floor = measure("direct", 1000);
        let glue = measure("glue", 1000);
        let overhead = glue - floor;
        assert!(overhead >= 0.0);
        assert!(
            overhead < floor * 0.05,
            "plain connector adds {overhead:.4}ms over {floor:.4}ms (>5%)"
        );
    }

    #[test]
    fn aspect_chain_costs_more_than_glue() {
        let glue = measure("glue", 1000);
        let chain = measure("aspect-chain", 1000);
        assert!(chain > glue);
    }

    #[test]
    fn compression_wins_on_large_messages() {
        // On a slow link, shrinking a big payload beats the CPU it costs.
        let plain = measure("glue", 100_000);
        let compressed = measure("compressing", 100_000);
        assert!(
            compressed < plain,
            "compressed {compressed:.3} !< plain {plain:.3}"
        );
        // And loses (or ties) on tiny ones.
        let plain_small = measure("glue", 100);
        let compressed_small = measure("compressing", 100);
        assert!(compressed_small >= plain_small);
    }
}
