//! One plan's life, from whoever submitted it to the books it closes.
//!
//! A control-plane plan is submitted by a user, a RAML rule, the heal
//! driver or the negotiator, runs (or queues, or is rejected) in the
//! transactional engine, and ends in a commit, a rollback or a rejection
//! that its submitter must learn of: a repaired node's incident closes, a
//! failed repair is planned again, a twin prediction is paired with its
//! actual, a migrated agent may move again. Each scenario below takes one
//! of those paths and renders everything an operator could read of it —
//! the whole audit log, the reports, the repair metrics, the coverage
//! cells, where every instance ended up.
//!
//! The traces under `plan_lifecycle/` were recorded on PR 14 (`da2936b`),
//! where each submitter reconciled its own plans by hand: this file ran
//! there unchanged, so the one reconciler is held to the record order and
//! the end state the per-submitter copies produced. The last test is the
//! case where those copies had diverged; it has no trace to hold because
//! it fails there.

use aas_control::negotiate::ResourceVector;
use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::detector::DetectorConfig;
use aas_core::error::{ComponentError, StateError};
use aas_core::heal::{PlanMutation, RepairPolicy};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigId, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::{AgentProfile, NegotiateConfig, Runtime, TwinConfig};
use aas_obs::AuditKind;
use aas_sim::fault::FaultSchedule;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use std::fmt::Write as _;

/// The detector's monitor; it hosts the sink so that it is never the
/// coolest failover target.
const MONITOR: NodeId = NodeId(0);
/// Hosts the services whose incidents the scenarios follow.
const VICTIM: NodeId = NodeId(2);

fn frame(cost: f64) -> Message {
    Message::event(
        "frame",
        Value::map([("bytes", Value::Int(200)), ("cost", Value::Float(cost))]),
    )
}

/// Counts ticks. Version 2 passes validation and cannot restore, which is
/// how a plan gets as far as applying actions and then rolls back.
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
        static OPS: [Signature; 1] = [Signature::one_way("frame")];
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

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    for version in [1, 2] {
        r.register("Count", version, move |_| {
            Box::new(Count { version, ticks: 0 })
        });
    }
    r
}

/// Five-node clique: `svc` and `svc2` on the victim node feed `sink` on
/// the monitor, beside `hog` (idle unless a scenario loads it); nodes 1, 3
/// and 4 are idle failover targets, coolest first. Fail-stop semantics
/// and a live failure detector, so a victim crash is a genuine detect →
/// plan → repair incident.
fn heal_harness(seed: u64, policy: RepairPolicy) -> Runtime {
    let topo = Topology::clique(5, 1000.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, registry());
    let mut cfg = Configuration::new();
    cfg.component("svc", ComponentDecl::new("Transcoder", 1, VICTIM));
    cfg.component("svc2", ComponentDecl::new("Transcoder", 1, VICTIM));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, MONITOR));
    cfg.component("hog", ComponentDecl::new("Transcoder", 1, MONITOR));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("svc", "out", "wire", "sink", "in"));
    cfg.bind(BindingDecl::new("svc2", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(policy);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        MONITOR,
    ));
    for i in 0..120u64 {
        let target = if i % 2 == 0 { "svc" } else { "svc2" };
        rt.inject_after(SimDuration::from_millis(i * 50), target, frame(0.05))
            .expect("inject");
    }
    rt
}

/// Queues `frames` handler jobs of `cost` work units on `hog` and submits
/// a user plan that swaps it: the plan holds the engine until they drain.
fn hold_engine(rt: &mut Runtime, frames: u32, cost: f64) -> ReconfigId {
    for _ in 0..frames {
        rt.inject("hog", frame(cost)).expect("inject");
    }
    rt.run_for(SimDuration::from_millis(5));
    let id = rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "hog".into(),
        type_name: "Transcoder".into(),
        version: 1,
        transfer: StateTransfer::None,
    }));
    assert!(rt.reconfig_in_progress(), "{id} waits for `hog` to drain");
    id
}

fn outage(rt: &mut Runtime, node: NodeId, from: SimTime, to: SimTime) {
    let mut faults = FaultSchedule::new();
    faults.node_outage(node, from, to);
    rt.inject_faults(faults);
}

/// Everything the scenarios compare: the audit log in full, then what
/// the books say once the run is over — and the books must balance.
fn trace(rt: &mut Runtime) -> String {
    assert_eq!(rt.check_settled(), []);
    assert_eq!(rt.violations_seen(), []);
    let mut out = String::new();
    for e in rt.obs().audit.entries() {
        let _ = writeln!(
            out,
            "{}|{}|{}|{}|{}",
            e.at_us,
            e.kind.label(),
            e.plan(),
            e.subject(),
            e.outcome()
        );
    }
    for r in rt.reports() {
        let _ = writeln!(
            out,
            "report {}: success={} applied={} migrated={:?} failure={:?}",
            r.id, r.success, r.actions_applied, r.migrated, r.failure
        );
    }
    let m = rt.metrics();
    let _ = writeln!(
        out,
        "mttd: n={} mean_ms={:.3}; mttr: n={} mean_ms={:.3}; dropped_on_crash={}",
        m.mttd_ms.count(),
        m.mttd_ms.mean(),
        m.mttr_ms.count(),
        m.mttr_ms.mean(),
        m.dropped_on_crash
    );
    for (cell, n) in rt.adaptation_coverage().cells() {
        // Quiet detector ticks depend on how long the scenario runs, not
        // on what any plan did.
        if !cell.starts_with("steady/") {
            let _ = writeln!(out, "cell {cell}: {n}");
        }
    }
    let nodes = rt.topology().node_count();
    for node in (0..nodes).map(|i| NodeId(i as u32)) {
        if let Some(p) = rt.twin_prediction(node) {
            let _ = writeln!(out, "outstanding prediction {node}: {}", p.policy_label);
        }
    }
    for c in &rt.observe().components {
        let _ = writeln!(out, "{} on {}: {:?}", c.name, c.node, c.lifecycle);
    }
    let _ = writeln!(out, "in progress: {}", rt.reconfig_in_progress());
    out
}

/// Holds `actual` to the recorded trace `name`; on a difference the
/// actual trace is left beside the test binaries for `diff`.
fn held(name: &str, recorded: &str, actual: &str) {
    if recorded != actual {
        let path = format!("{}/{name}.actual", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, actual).expect("write the actual trace");
        panic!("trace `{name}` differs from the recorded one; actual trace at {path}");
    }
}

fn kinds(rt: &Runtime, plan: &str) -> Vec<&'static str> {
    rt.obs()
        .audit
        .for_plan(plan)
        .iter()
        .map(|e| e.kind.label())
        .collect()
}

fn count_of(rt: &Runtime, kind: AuditKind) -> usize {
    rt.obs().audit.of_kind(kind).len()
}

/// A restart plan has nothing to drain and no state to move, so it runs
/// from submission to commit inside `request_reconfig`; a failover plan
/// waits out a state transfer and commits on a later event. Either way
/// the node is planned for once, the plan's chain is complete, the repair
/// is booked once with its MTTR, and the incident is closed.
#[test]
fn a_repair_booked_the_same_whether_it_ends_at_submission_or_on_a_later_event() {
    let mut sync = heal_harness(101, RepairPolicy::RestartInPlace);
    outage(
        &mut sync,
        VICTIM,
        SimTime::from_secs(1),
        SimTime::from_secs(3),
    );
    sync.run_until(SimTime::from_secs(7));
    let mut later = heal_harness(101, RepairPolicy::FailoverMigrate);
    outage(
        &mut later,
        VICTIM,
        SimTime::from_secs(1),
        SimTime::from_secs(3),
    );
    later.run_until(SimTime::from_secs(7));

    for (rt, finished_before_planned) in [(&sync, true), (&later, false)] {
        assert_eq!(rt.reports().len(), 1);
        assert!(rt.reports()[0].success);
        let chain = kinds(rt, "reconfig1");
        assert_eq!(chain.first(), Some(&"plan_submitted"));
        let at = |label: &str| chain.iter().position(|k| *k == label).expect(label);
        assert_eq!(
            at("plan_finished") < at("repair_planned"),
            finished_before_planned
        );
        assert_eq!(chain.last(), Some(&"repair_completed"));
        assert!(at("repair_planned") < at("repair_completed"));
        assert_eq!(count_of(rt, AuditKind::RepairPlanned), 1);
        assert_eq!(count_of(rt, AuditKind::RepairCompleted), 1);
        assert_eq!(rt.metrics().mttr_ms.count(), 1);
    }
    held(
        "repair_sync",
        include_str!("plan_lifecycle/repair_sync.trace"),
        &trace(&mut sync),
    );
    held(
        "repair_later",
        include_str!("plan_lifecycle/repair_later.trace"),
        &trace(&mut later),
    );
}

/// A planner that fails over onto the suspect itself is rejected at
/// submission for as long as the suspect is down. A sound failover plan
/// that queues behind a user plan, and whose target crashes before the
/// engine gets to it, is rejected when it is dequeued. Both leave the node
/// queued, and the next detector tick plans for it again.
#[test]
fn b_rejected_repair_is_planned_again_whether_rejected_at_submission_or_at_dequeue() {
    let mut at_submission = heal_harness(202, RepairPolicy::FailoverMigrate);
    at_submission.set_plan_mutation(Some(PlanMutation::TargetSuspect));
    outage(
        &mut at_submission,
        VICTIM,
        SimTime::from_secs(1),
        SimTime::from_millis(1500),
    );
    at_submission.run_until(SimTime::from_secs(7));
    let rejected = at_submission
        .reports()
        .iter()
        .filter(|r| !r.success)
        .count();
    assert!(
        rejected >= 2,
        "one rejection per detector tick of the outage"
    );
    assert_eq!(
        count_of(&at_submission, AuditKind::RepairPlanned),
        at_submission.reports().len(),
        "every rejection was planned again"
    );
    assert_eq!(count_of(&at_submission, AuditKind::RepairCompleted), 1);

    let mut at_dequeue = heal_harness(202, RepairPolicy::FailoverMigrate);
    at_dequeue.run_until(SimTime::from_millis(900));
    let user = hold_engine(&mut at_dequeue, 30, 50.0);
    outage(
        &mut at_dequeue,
        VICTIM,
        SimTime::from_millis(910),
        SimTime::from_secs(4),
    );
    // The repair is planned onto node 1 and queues; node 1 goes down
    // before the user plan lets go of the engine.
    while count_of(&at_dequeue, AuditKind::RepairPlanned) == 0 {
        at_dequeue.step().expect("the detector keeps ticking");
    }
    assert_eq!(at_dequeue.reports().len(), 0, "the user plan still runs");
    let now = at_dequeue.now();
    outage(
        &mut at_dequeue,
        NodeId(1),
        now + SimDuration::from_millis(1),
        SimTime::from_secs(6),
    );
    at_dequeue.run_until(SimTime::from_secs(7));
    let reports = at_dequeue.reports();
    assert_eq!(reports[0].id, user);
    assert!(reports[0].success);
    assert!(
        !reports[1].success
            && reports[1]
                .failure
                .as_deref()
                .is_some_and(|f| f.starts_with("rejected:")),
        "the queued repair is rejected at dequeue: {:?}",
        reports[1]
    );
    assert!(reports[2].success, "and planned again: {:?}", reports[2]);
    assert_eq!(count_of(&at_dequeue, AuditKind::RepairPlanned), 2);
    assert_eq!(count_of(&at_dequeue, AuditKind::RepairCompleted), 1);

    held(
        "rejected_at_submission",
        include_str!("plan_lifecycle/rejected_at_submission.trace"),
        &trace(&mut at_submission),
    );
    held(
        "rejected_at_dequeue",
        include_str!("plan_lifecycle/rejected_at_dequeue.trace"),
        &trace(&mut at_dequeue),
    );
}

/// The twin picks failover onto node 1; node 1 dies between the plan's
/// two migrations, after the forks were taken, so the plan the twin
/// guided rolls back on the mainline. The prediction is dropped, the
/// incident falls back to the static policy (no second prediction for
/// it), and the next incident consults the twin again.
#[test]
fn c_failed_twin_guided_plan_falls_back_to_static_until_the_incident_closes() {
    let mut rt = heal_harness(303, RepairPolicy::FailoverMigrate);
    rt.enable_twin(TwinConfig::default());
    outage(
        &mut rt,
        VICTIM,
        SimTime::from_secs(1),
        SimTime::from_secs(3),
    );
    while !rt.reconfig_in_progress() {
        rt.step().expect("the detector keeps ticking");
    }
    assert_eq!(
        rt.twin_prediction(VICTIM).map(|p| p.policy_label),
        Some("failover")
    );
    let now = rt.now();
    outage(
        &mut rt,
        NodeId(1),
        now + SimDuration::from_micros(100),
        SimTime::from_secs(5),
    );
    rt.run_until(SimTime::from_secs(6));
    let reports = rt.reports();
    assert!(!reports[0].success, "{:?}", reports[0]);
    assert!(reports[1].success, "{:?}", reports[1]);
    assert!(rt.twin_prediction(VICTIM).is_none());
    assert_eq!(count_of(&rt, AuditKind::TwinPredicted), 1);
    assert_eq!(count_of(&rt, AuditKind::TwinActual), 0);
    assert_eq!(count_of(&rt, AuditKind::RepairCompleted), 1);

    // The incident is closed; the services' new host fails next.
    let host = rt.node_of("svc").expect("svc lives");
    assert_ne!(host, VICTIM);
    outage(&mut rt, host, SimTime::from_secs(7), SimTime::from_secs(9));
    rt.run_until(SimTime::from_secs(12));
    assert_eq!(count_of(&rt, AuditKind::TwinPredicted), 2);
    assert_eq!(count_of(&rt, AuditKind::TwinActual), 1);
    assert_eq!(count_of(&rt, AuditKind::RepairCompleted), 2);

    held(
        "twin_fallback",
        include_str!("plan_lifecycle/twin_fallback.trace"),
        &trace(&mut rt),
    );
}

/// `a → b → c`. The plan quiesces `b`, replaces it by `b2` — two unbinds
/// and a removal, whose channels are closed at commit rather than
/// released into anything, an add and two binds — and quiesces `b2`.
/// Committed, and — with a swap of `c` that cannot restore as its last
/// action — rolled back, where the new channels are the ones closed:
/// either way every channel the plan blocked is released exactly once.
#[test]
fn d_commit_and_rollback_each_release_every_channel_they_blocked() {
    let build = || {
        let topo = Topology::clique(4, 2000.0, SimDuration::from_millis(2), 1e7);
        let mut rt = Runtime::new(topo, 404, registry());
        let mut cfg = Configuration::new();
        cfg.component("a", ComponentDecl::new("Transcoder", 1, NodeId(0)));
        cfg.component("b", ComponentDecl::new("Transcoder", 1, NodeId(1)));
        cfg.component("c", ComponentDecl::new("Count", 1, NodeId(2)));
        cfg.connector(ConnectorSpec::direct("wire"));
        cfg.connector(ConnectorSpec::direct("tail"));
        cfg.bind(BindingDecl::new("a", "out", "wire", "b", "in"));
        cfg.bind(BindingDecl::new("b", "out", "tail", "c", "in"));
        rt.deploy(&cfg).expect("deploy");
        for i in 0..200u64 {
            rt.inject_after(SimDuration::from_millis(5 * i), "a", frame(4.0))
                .expect("inject");
        }
        rt.run_until(SimTime::from_millis(300));
        rt
    };
    let requiesce = |name: &str| ReconfigAction::SwapImplementation {
        name: name.into(),
        type_name: "Transcoder".into(),
        version: 1,
        transfer: StateTransfer::None,
    };
    let replace_b = || {
        let mut plan = ReconfigPlan::new();
        for action in [
            requiesce("b"),
            ReconfigAction::Unbind {
                from: ("a".into(), "out".into()),
            },
            ReconfigAction::Unbind {
                from: ("b".into(), "out".into()),
            },
            ReconfigAction::RemoveComponent { name: "b".into() },
            ReconfigAction::AddComponent {
                name: "b2".into(),
                decl: ComponentDecl::new("Transcoder", 1, NodeId(3)),
            },
            ReconfigAction::Bind(BindingDecl::new("a", "out", "wire", "b2", "in")),
            ReconfigAction::Bind(BindingDecl::new("b2", "out", "tail", "c", "in")),
            requiesce("b2"),
        ] {
            plan.push(action);
        }
        plan
    };

    let mut committed = build();
    committed.request_reconfig(replace_b());
    committed.run_until(SimTime::from_secs(2));
    assert!(committed.reports()[0].success);

    let mut rolled_back = build();
    let before = rolled_back.graph_fingerprint();
    let mut plan = replace_b();
    plan.push(ReconfigAction::SwapImplementation {
        name: "c".into(),
        type_name: "Count".into(),
        version: 2,
        transfer: StateTransfer::Snapshot,
    });
    rolled_back.request_reconfig(plan);
    rolled_back.run_until(SimTime::from_secs(2));
    assert!(!rolled_back.reports()[0].success);
    assert_eq!(rolled_back.graph_fingerprint(), before);

    for rt in [&committed, &rolled_back] {
        let blocked = count_of(rt, AuditKind::ChannelBlocked);
        assert!(blocked >= 4, "the plan blocked {blocked} channels");
    }
    held(
        "committed",
        include_str!("plan_lifecycle/committed.trace"),
        &trace(&mut committed),
    );
    held(
        "rolled_back",
        include_str!("plan_lifecycle/rolled_back.trace"),
        &trace(&mut rolled_back),
    );
}

/// The divergence: `gold` and `silver` starve on an overloaded host, so
/// the negotiator files a migration for each. A user plan holds the
/// engine, the migrations queue, their target crashes, and the engine
/// rejects them when it dequeues them. A rejected migration is over:
/// once the cooldown has passed and the target is back, the agents move.
/// (With `reject_plan` looking at repair plans only, both agents read as
/// still moving for the rest of the run.)
#[test]
fn e_migration_rejected_at_dequeue_does_not_leave_its_agent_moving() {
    const HOST: NodeId = NodeId(1);
    let topo = Topology::clique(4, 2000.0, SimDuration::from_millis(1), 1e7);
    let mut rt = Runtime::new(topo, 505, registry());
    let mut cfg = Configuration::new();
    cfg.component("gold", ComponentDecl::new("Transcoder", 1, HOST));
    cfg.component("silver", ComponentDecl::new("Transcoder", 1, HOST));
    cfg.component("gsink", ComponentDecl::new("MediaSink", 1, NodeId(2)));
    cfg.component("ssink", ComponentDecl::new("MediaSink", 1, NodeId(3)));
    cfg.component("hog", ComponentDecl::new("Transcoder", 1, NodeId(3)));
    cfg.connector(ConnectorSpec::direct("g_wire"));
    cfg.connector(ConnectorSpec::direct("s_wire"));
    cfg.bind(BindingDecl::new("gold", "out", "g_wire", "gsink", "in"));
    cfg.bind(BindingDecl::new("silver", "out", "s_wire", "ssink", "in"));
    rt.deploy(&cfg).expect("deploy");
    for exempt in ["gsink", "ssink", "hog"] {
        rt.set_agent_profile(
            exempt,
            AgentProfile {
                exempt: true,
                ..AgentProfile::default()
            },
        );
    }
    rt.enable_negotiation(NegotiateConfig {
        interval: SimDuration::from_millis(50),
        budget: ResourceVector {
            capacity: 4.0,
            work_rate: 1000.0,
            retry_budget: 64.0,
            twin_horizon: 4.0,
        },
        nominal_cost: 2.0,
        floor_fraction: 0.05,
        migrate_above: 0.9,
        ..NegotiateConfig::default()
    });
    // Ten times what the host sustains, for six seconds.
    for i in 0..60_000u64 {
        let target = if i % 2 == 0 { "gold" } else { "silver" };
        rt.inject_after(SimDuration::from_micros(100 * i), target, frame(2.0))
            .expect("inject");
    }
    // Two seconds of handler work on `hog`.
    let user = hold_engine(&mut rt, 40, 100.0);
    while count_of(&rt, AuditKind::PlanSubmitted) < 2 {
        rt.step().expect("the negotiator keeps ticking");
    }
    let filed_at = rt.now();
    assert!(rt.reports().is_empty(), "the migration queued");
    // The migration's target is the first idle node, node 0.
    outage(
        &mut rt,
        NodeId(0),
        filed_at + SimDuration::from_millis(1),
        SimTime::from_millis(2500),
    );
    while rt.reports().len() < 2 {
        rt.step().expect("`hog` drains");
    }
    let reports = rt.reports();
    assert_eq!(reports[0].id, user);
    for r in &reports[1..] {
        assert!(
            r.failure
                .as_deref()
                .is_some_and(|f| f.starts_with("rejected:")),
            "a migration onto a crashed node is rejected at dequeue: {r:?}"
        );
    }
    assert_eq!(rt.node_of("gold"), Some(HOST));
    assert_eq!(rt.node_of("silver"), Some(HOST));

    // The cooldown (32 rounds of 50 ms from the filing round) is over
    // already, and the overload lasts four more seconds.
    assert!(rt.now() > filed_at + SimDuration::from_millis(32 * 50));
    rt.run_until(SimTime::from_secs(7));
    let moved: Vec<&str> = rt
        .reports()
        .iter()
        .filter(|r| r.success)
        .flat_map(|r| r.migrated.iter().map(String::as_str))
        .collect();
    assert!(
        !moved.is_empty(),
        "no agent migrated again after its rejected migration: {:?}",
        rt.reports()
    );
    assert_eq!(rt.check_settled(), []);
    assert_eq!(rt.violations_seen(), []);
}
