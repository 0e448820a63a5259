//! Digital-twin plan verification end to end (DESIGN.md §2.9): fork
//! isolation, twin-guided policy selection, predicted-vs-actual audit
//! reconciliation, and the planner-fault coverage cells the twin's
//! rejected-plan branch claims.

use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::coverage::{DetectPhase, PlanOutcome};
use aas_core::detector::DetectorConfig;
use aas_core::heal::{PlanMutation, RepairPolicy};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::{Runtime, TwinConfig};
use aas_obs::AuditKind;
use aas_sim::fault::FaultSchedule;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;

/// Node 2 hosts the victim service; node 0 is the detector's monitor.
const VICTIM: NodeId = NodeId(2);

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    r
}

fn frame(cost: f64) -> Message {
    Message::event(
        "frame",
        Value::map([("bytes", Value::Int(200)), ("cost", Value::Float(cost))]),
    )
}

/// Four-node clique: `svc` on the victim node feeds `sink` on node 3,
/// with nodes 0 (monitor) and 1 free as failover targets. Fail-stop
/// semantics and a live failure detector, so a victim crash produces a
/// genuine detect → plan → repair incident.
fn harness(seed: u64, policy: RepairPolicy) -> Runtime {
    let topo = Topology::clique(4, 1000.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, registry());
    let mut cfg = Configuration::new();
    cfg.component("svc", ComponentDecl::new("Transcoder", 1, VICTIM));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(3)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("svc", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(policy);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    rt
}

/// One crash/recover incident on the victim node plus steady traffic.
fn inject_incident(rt: &mut Runtime, recover_at: SimTime) {
    let mut faults = FaultSchedule::new();
    faults.node_outage(VICTIM, SimTime::from_secs(1), recover_at);
    rt.inject_faults(faults);
    for i in 0..80u64 {
        rt.inject_after(SimDuration::from_millis(i * 50), "svc", frame(0.05))
            .expect("inject");
    }
}

/// Every series name `rt`'s registry lists, by kind.
fn metric_series(rt: &Runtime) -> [Vec<String>; 3] {
    let snap = rt.obs().metrics.snapshot();
    [
        snap.counters.into_keys().collect(),
        snap.gauges.into_keys().collect(),
        snap.histograms.into_keys().collect(),
    ]
}

/// What `observe()` reports of `sink`, rendered for equality checks.
fn sink_reading(rt: &Runtime) -> String {
    format!("{:?}", rt.observe().component("sink").expect("sink"))
}

/// Deterministic rendering of the full audit log for equality checks.
fn audit_trace(rt: &Runtime) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in rt.obs().audit.entries() {
        let _ = writeln!(
            out,
            "{}|{:?}|{}|{}|{}",
            e.at_us,
            e.kind,
            e.plan(),
            e.subject(),
            e.outcome()
        );
    }
    out
}

/// A fork is a true bystander: stepping it forward — through its own
/// repair of the incident — and dropping it leaves the mainline's graph,
/// component state, metrics and audit log byte-identical, and the
/// mainline's subsequent run matches a control that never forked. The
/// fork's telemetry is its own and registered nowhere the mainline reads.
#[test]
fn fork_is_isolated_and_dropping_it_is_inert() {
    let mut rt = harness(7, RepairPolicy::FailoverMigrate);
    let mut control = harness(7, RepairPolicy::FailoverMigrate);
    inject_incident(&mut rt, SimTime::from_secs(3));
    inject_incident(&mut control, SimTime::from_secs(3));

    // Stop mid-incident: the victim is down and repair is in motion.
    rt.run_until(SimTime::from_millis(1500));
    control.run_until(SimTime::from_millis(1500));

    let graph = rt.graph_fingerprint();
    let state = rt.state_fingerprint();
    let audit = audit_trace(&rt);
    let dropped = rt.metrics().dropped;
    let series = metric_series(&rt);
    let sink = sink_reading(&rt);

    {
        let mut fork = rt.fork_twin().expect("fork outside a transaction");
        // The fork carries the pending fault schedule and repair state:
        // driving it to the far side of the incident exercises its whole
        // copy of the runtime without consulting the mainline.
        fork.run_until(SimTime::from_secs(8));
        assert!(
            !audit_trace(&fork).is_empty(),
            "the fork's audit log is its own"
        );
        assert_ne!(
            fork.state_fingerprint(),
            state,
            "the fork advanced past the projection point"
        );
        // The fork's histograms start empty and record its own run, read
        // through `observe()`; the mainline's registry and readings stay
        // as they were.
        let snap = fork.observe();
        let forked_sink = snap.component("sink").expect("sink");
        assert!(forked_sink.p99_latency_ms > 0.0, "{forked_sink:?}");
        assert_eq!(metric_series(&rt), series, "fork registered a series");
        assert_eq!(sink_reading(&rt), sink, "fork moved the mainline sink");
    } // fork dropped here

    assert_eq!(rt.graph_fingerprint(), graph, "fork mutated mainline graph");
    assert_eq!(rt.state_fingerprint(), state, "fork mutated mainline state");
    assert_eq!(audit_trace(&rt), audit, "fork wrote to the mainline audit");
    assert_eq!(rt.metrics().dropped, dropped, "fork moved mainline metrics");

    // The forked run must not have perturbed the mainline's RNG or event
    // stream: finishing the run reproduces the never-forked control.
    rt.run_until(SimTime::from_secs(10));
    control.run_until(SimTime::from_secs(10));
    assert_eq!(rt.graph_fingerprint(), control.graph_fingerprint());
    assert_eq!(rt.state_fingerprint(), control.state_fingerprint());
    assert_eq!(audit_trace(&rt), audit_trace(&control));
}

/// While a reconfiguration transaction is active (or queued) the journal
/// holds live component state that cannot be duplicated — `fork_twin`
/// refuses rather than fork half a transaction.
#[test]
fn fork_refuses_mid_transaction() {
    let mut rt = harness(11, RepairPolicy::None);
    // Keep `svc` busy so the quiesce phase cannot finish synchronously.
    for i in 0..20u64 {
        rt.inject_after(SimDuration::from_millis(i * 2), "svc", frame(50.0))
            .expect("inject");
    }
    rt.run_until(SimTime::from_millis(30));
    let id = rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "svc".into(),
        to: NodeId(1),
    }));
    assert!(
        rt.reconfig_in_progress(),
        "plan {id} should be draining in-flight work"
    );
    assert!(rt.fork_twin().is_none(), "forked a live transaction");
    rt.run_until(SimTime::from_secs(20));
    assert!(!rt.reconfig_in_progress());
    assert!(rt.fork_twin().is_some(), "quiet runtime must fork");
}

/// With the twin enabled, the heal driver simulates both candidates,
/// picks failover (restart must wait ~2 s for the node to return), and
/// the run leaves a `twin_predicted` / `twin_actual` audit pair for the
/// incident — prediction before actual, same policy, same subject.
#[test]
fn twin_guided_repair_emits_prediction_and_actual_pair() {
    let mut rt = harness(23, RepairPolicy::FailoverMigrate);
    rt.enable_twin(TwinConfig::default());
    inject_incident(&mut rt, SimTime::from_secs(3));
    rt.run_until(SimTime::from_secs(10));

    let audit = rt.obs().audit.clone();
    let predicted = audit.of_kind(AuditKind::TwinPredicted);
    let actual = audit.of_kind(AuditKind::TwinActual);
    assert_eq!(predicted.len(), 1, "one incident, one prediction");
    assert_eq!(actual.len(), 1, "every prediction reconciles");
    let (p, a) = (&predicted[0], &actual[0]);
    let ([p_plan, p_subject, p_outcome], [a_plan, a_subject, a_outcome]) = (p.texts(), a.texts());
    assert_eq!(p_plan, "failover", "failover strictly beats restart here");
    assert_eq!(p_subject, VICTIM.to_string());
    assert_eq!(a_plan, p_plan);
    assert_eq!(a_subject, p_subject);
    assert!(p.at_us <= a.at_us, "prediction must precede the outcome");
    assert!(p_outcome.contains("availability=") && p_outcome.contains("mttr_ms="));
    assert!(a_outcome.contains("actual_mttr_ms=") && a_outcome.contains("predicted_mttr_ms="));

    // The repair it guided really completed, attributed to the twin's
    // chosen policy, and the prediction ledger drained.
    assert!(!audit.of_kind(AuditKind::RepairCompleted).is_empty());
    assert!(
        rt.adaptation_coverage().count((
            DetectPhase::Suspected,
            "failover",
            PlanOutcome::Completed
        )) >= 1
    );
    assert!(rt.twin_prediction(VICTIM).is_none());
}

/// Twin-guided selection is a pure function of the runtime state: two
/// identically seeded universes make the same predictions, the same
/// choices, and end byte-identical.
#[test]
fn twin_guided_run_is_deterministic() {
    let run = || {
        let mut rt = harness(31, RepairPolicy::FailoverMigrate);
        rt.enable_twin(TwinConfig::default());
        inject_incident(&mut rt, SimTime::from_secs(3));
        rt.run_until(SimTime::from_secs(10));
        (
            rt.graph_fingerprint(),
            rt.state_fingerprint(),
            audit_trace(&rt),
        )
    };
    assert_eq!(run(), run());
}

/// A stale deployment manifest (restart swaps to a version the registry
/// never saw) is caught by validation every time the mainline falls back
/// to the static restart policy — claiming the `suspected/restart/failed`
/// coverage cell. The twin's forks see the same rejection, so no
/// candidate repairs and the twin abstains rather than masking the bug.
#[test]
fn stale_version_restart_claims_failed_cell() {
    let mut rt = harness(41, RepairPolicy::RestartInPlace);
    rt.set_plan_mutation(Some(PlanMutation::StaleVersion));
    rt.enable_twin(TwinConfig {
        horizon: SimDuration::from_secs(1),
        candidates: vec![RepairPolicy::RestartInPlace],
    });
    inject_incident(&mut rt, SimTime::from_secs(3));
    rt.run_until(SimTime::from_secs(8));

    let cov = rt.adaptation_coverage();
    assert!(
        cov.count((DetectPhase::Suspected, "restart", PlanOutcome::Failed)) >= 1,
        "stale-version restart plans must be rejected: {:?}",
        cov.cells()
    );
    assert!(
        cov.count((DetectPhase::Suspected, "restart", PlanOutcome::Deferred)) >= 1,
        "restart waits for the node before its plan can fail"
    );
    assert!(
        rt.obs().audit.of_kind(AuditKind::TwinPredicted).is_empty(),
        "no fork repairs under the mutation, so the twin must abstain"
    );
}

/// A planner corrupted to fail over *onto the suspect* proposes a
/// migration to a down node, which validation rejects while the outage
/// lasts — claiming the `suspected/failover/failed` coverage cell.
#[test]
fn target_suspect_failover_claims_failed_cell() {
    let mut rt = harness(43, RepairPolicy::FailoverMigrate);
    rt.set_plan_mutation(Some(PlanMutation::TargetSuspect));
    rt.enable_twin(TwinConfig {
        horizon: SimDuration::from_secs(1),
        candidates: vec![RepairPolicy::FailoverMigrate],
    });
    inject_incident(&mut rt, SimTime::from_secs(5));
    rt.run_until(SimTime::from_secs(12));

    let cov = rt.adaptation_coverage();
    assert!(
        cov.count((DetectPhase::Suspected, "failover", PlanOutcome::Failed)) >= 1,
        "migration onto the down suspect must be rejected: {:?}",
        cov.cells()
    );
}
