//! End-to-end ADL workflow: parse an architecture description, validate it
//! (semantics + FLO/C rule-cycle check + Wright-style protocol
//! compatibility), compile it into a deployment, run it, and watch the
//! declared interaction rule fire a live migration.
//!
//! Run with: `cargo run --example adl_deploy`

use aas_adl::behavior::{all_compatible, check_bindings};
use aas_adl::deploy::{build_raml, compile};
use aas_adl::parser::parse_system;
use aas_adl::validate::validate;
use aas_core::lts::{Label, Lts};
use aas_core::message::{Message, Value};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use std::collections::BTreeMap;

const SOURCE: &str = r#"
// A small edge/core video system. The edge node is deliberately weak;
// the `offload` rule migrates the transcoder to the core when the edge
// saturates.
system EdgeVideo {
    node edge { capacity = 80.0; memory = 4096; }
    node core { capacity = 2000.0; memory = 65536; }
    link edge -- core { latency_ms = 6.0; bandwidth = 5e6; }

    component source : MediaSource v1 on edge { level = 2; }
    component coder  : Transcoder  v1 on edge { expected_load = 50.0; }
    component sink   : MediaSink   v1 on auto { expected_load = 5.0; }

    connector extract { policy direct; aspect sequence_check; cost 0.02; }
    connector deliver { policy direct; aspect metering; cost 0.02; }

    bind source.out -> extract -> coder.in;
    bind coder.out  -> deliver -> sink.in;

    constraint max_node_utilization(edge, 0.85);
    constraint no_sequence_anomalies(sink);

    rule offload: utilization(edge) > 0.7 wait_until migrate(coder, core);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse.
    let sys = parse_system(SOURCE)?;
    println!("parsed system `{}`:", sys.name);
    println!(
        "  {} nodes, {} links, {} components, {} connectors, {} bindings, {} rules",
        sys.nodes.len(),
        sys.links.len(),
        sys.components.len(),
        sys.connectors.len(),
        sys.bindings.len(),
        sys.rules.len()
    );

    // 2. Validate semantics (references, FLO/C rule cycles, ...).
    let issues = validate(&sys);
    if issues.is_empty() {
        println!("  validation: clean");
    } else {
        for i in &issues {
            println!("  validation issue: {i}");
        }
        return Err("validation failed".into());
    }

    // 3. Wright-style protocol compatibility on every binding.
    let mut protocols: BTreeMap<String, Lts> = BTreeMap::new();
    // Frame producers emit `frame`; consumers accept it — a one-action
    // streaming protocol shared by all three types.
    for (ty, dir) in [
        ("MediaSource", "send"),
        ("Transcoder", "both"),
        ("MediaSink", "recv"),
    ] {
        let mut lts = Lts::new(ty);
        let s0 = lts.add_state("s0");
        lts.set_initial(s0);
        lts.mark_final(s0);
        if dir != "recv" {
            lts.add_transition(s0, Label::send("frame"), s0);
        }
        if dir != "send" {
            lts.add_transition(s0, Label::recv("frame"), s0);
        }
        protocols.insert(ty.to_owned(), lts);
    }
    let verdicts = check_bindings(&sys, &protocols);
    for v in &verdicts {
        println!("  {v}");
    }
    assert!(all_compatible(&verdicts), "protocol incompatibility");

    // 4. Compile: topology + configuration + placements.
    let deployment = compile(&sys)?;
    println!("\nplacements:");
    for (comp, node) in &deployment.placements {
        println!("  {comp} -> {node}");
    }

    // 5. Deploy and install the meta level: constraints and rules.
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let mut rt = Runtime::new(deployment.topology, 5, registry);
    rt.deploy(&deployment.configuration)?;
    let raml = build_raml(
        &sys,
        &deployment.node_ids,
        SimDuration::from_millis(200),
        SimDuration::from_secs(5),
    )?;
    rt.install_raml(raml);

    // 6. Drive load: sessions arrive, the weak edge node saturates, the
    //    `offload` rule fires and migrates the transcoder to the core.
    rt.inject("source", Message::event("init", Value::Null))?;
    for i in 0..12u64 {
        rt.inject_after(
            SimDuration::from_secs(2 + i * 2),
            "source",
            Message::event("session_start", Value::Null),
        )?;
    }
    rt.run_until(SimTime::from_secs(60));

    let coder_node = rt.node_of("coder").expect("coder");
    println!("\nafter 60s: coder hosted on {coder_node}");
    for r in rt.reports() {
        println!(
            "  {}: reconfig success={} blackout={} state={}B",
            r.finished_at,
            r.success,
            r.max_blackout(),
            r.state_bytes_transferred
        );
    }
    let fired = rt.raml().expect("raml").rules()[0].fired_count();
    println!("rule `offload` fired {fired} time(s)");
    assert_eq!(fired, 1, "the edge saturates once: `offload` fires once");
    assert_eq!(
        coder_node, deployment.node_ids["core"],
        "transcoder should have been offloaded to the core node"
    );
    let snap = rt.observe();
    println!(
        "sink received {} frames, {} sequence anomalies",
        snap.component("sink").unwrap().processed,
        snap.component("sink").unwrap().seq_anomalies,
    );
    Ok(())
}
