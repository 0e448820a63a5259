//! Quickstart: assemble a two-component app, run traffic through a
//! connector, then hot-swap the server's implementation mid-stream —
//! strong reconfiguration, no message lost. Finishes by exporting the
//! run's telemetry (metrics + reconfiguration audit trail) as JSONL.
//!
//! Run with: `cargo run --example quickstart`

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{ComponentDecl, Configuration};
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

/// v1: greets in English, counts greetings.
#[derive(Debug, Default)]
struct GreeterV1 {
    served: i64,
}

/// v2: greets in French, *continues the count* thanks to strong transfer.
#[derive(Debug, Default)]
struct GreeterV2 {
    served: i64,
}

macro_rules! impl_greeter {
    ($ty:ident, $version:expr, $greeting:expr) => {
        impl Component for $ty {
            fn type_name(&self) -> &str {
                "Greeter"
            }
            fn provided(&self) -> &Interface {
                static OPS: [Signature; 1] = [Signature::one_way("greet")];
                static IFACE: Interface = Interface::fixed("Greeter", &OPS);
                &IFACE
            }
            fn on_message(
                &mut self,
                ctx: &mut CallCtx,
                msg: Message,
            ) -> Result<(), ComponentError> {
                if msg.op != "greet" {
                    return Err(ComponentError::UnsupportedOperation(msg.op));
                }
                self.served += 1;
                let name = msg.value.as_str().unwrap_or("world");
                ctx.reply(Value::from(format!(
                    "{} {name}! (you are guest #{})",
                    $greeting, self.served
                )));
                Ok(())
            }
            fn snapshot(&self) -> StateSnapshot {
                StateSnapshot::new("Greeter", $version)
                    .with_field("served", Value::from(self.served))
            }
            fn restore(&mut self, snap: &StateSnapshot) -> Result<(), StateError> {
                self.served = snap.require("served")?.as_int().unwrap_or(0);
                Ok(())
            }
        }
    };
}

impl_greeter!(GreeterV1, 1, "Hello");
impl_greeter!(GreeterV2, 2, "Bonjour");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Register both implementations — the "code repository".
    let mut registry = ImplementationRegistry::new();
    registry.register("Greeter", 1, |_| Box::new(GreeterV1::default()));
    registry.register("Greeter", 2, |_| Box::new(GreeterV2::default()));

    // 2. Two nodes, 1 ms apart; the greeter lives on node 1.
    let topo = Topology::clique(2, 500.0, SimDuration::from_millis(1), 1e7);
    let mut rt = Runtime::new(topo, 2024, registry);

    let mut cfg = Configuration::new();
    cfg.component("greeter", ComponentDecl::new("Greeter", 1, NodeId(1)));
    cfg.connector(ConnectorSpec::direct("front").with_aspect(ConnectorAspect::Metering));
    rt.deploy(&cfg)?;

    // 3. A stream of greetings arriving every 50 ms...
    for i in 0..10u64 {
        rt.inject_after(
            SimDuration::from_millis(i * 50),
            "greeter",
            Message::request("greet", Value::from(format!("guest{i}"))),
        )?;
    }

    // 4. ...and a STRONG implementation swap right in the middle.
    rt.run_until(SimTime::from_millis(220));
    println!("--- requesting swap to v2 at {} ---", rt.now());
    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "greeter".into(),
        type_name: "Greeter".into(),
        version: 2,
        transfer: StateTransfer::Snapshot,
    }));
    rt.run_until(SimTime::from_secs(5));

    // 5. Every request was answered, the count never reset.
    for (at, reply) in rt.take_outbox() {
        println!("{at}  {}", reply.value);
    }
    let report = rt.reports().last().expect("one reconfiguration ran");
    println!(
        "\nreconfiguration: success={} duration={} blackout={} held={} state={}B",
        report.success,
        report.duration(),
        report.max_blackout(),
        report.messages_held,
        report.state_bytes_transferred,
    );
    let snap = rt.observe();
    let greeter = snap.component("greeter").expect("greeter");
    assert_eq!(greeter.version, 2, "v2 is live");
    assert_eq!(greeter.processed, 10, "all ten requests served");
    assert_eq!(greeter.seq_anomalies, 0, "no loss, no duplication");
    println!(
        "greeter now at v{} having served {} messages",
        greeter.version, greeter.processed
    );

    // 6. Everything the run recorded is exportable as JSONL: the shared
    //    metrics registry and the append-only reconfiguration audit log.
    let obs = rt.obs();
    println!("\n--- metrics (JSONL) ---");
    print!(
        "{}",
        aas_obs::export::metrics_jsonl(&obs.metrics.snapshot())
    );
    println!("--- audit trail (JSONL) ---");
    print!("{}", aas_obs::export::audit_jsonl(obs.audit.entries()));
    Ok(())
}
