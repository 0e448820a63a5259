//! Transactional reconfiguration: validate/commit/rollback invariants.
//!
//! A submitted plan is a transaction over the configuration graph. These
//! tests pin the three guarantees the PlanTxn engine makes:
//!
//! 1. **Rejection is free** — a plan that fails up-front validation
//!    mutates nothing: graph and component-state fingerprints are
//!    byte-identical around the rejection, and no channel was ever
//!    blocked on its behalf.
//! 2. **Rollback is exact** — a plan that aborts mid-flight (here: a
//!    strong swap whose replacement cannot restore the snapshot) replays
//!    its journal of compensating inverses; the graph returns
//!    byte-identically to its pre-plan configuration, and messages held
//!    at blocked channels are released without loss or duplication.
//! 3. **The audit reconciles** — `Runtime::check_settled` finds
//!    `plan_submitted` = committed + rejected + rolled_back, every
//!    rolled-back plan's `plan_rolled_back` entry, and every blocked
//!    channel released; the compensation trail is checked here.
//!
//! The property harness at the bottom drives ≥128 random fault×plan
//! interleavings (node outages + repair plans + poison/invalid/valid
//! user plans) and asserts that every non-committed plan leaves the
//! configuration graph exactly as it found it.

use aas_core::component::{CallCtx, Component, EchoComponent, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::error::{ComponentError, StateError};
use aas_core::heal::RepairPolicy;
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigId, ReconfigPlan, ReconfigReport, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_obs::{AuditEntry, AuditKind};
use aas_sim::fault::FaultSchedule;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// A stateful tick-counter. Version 1 restores cleanly; version 2 has an
/// identical interface (so it passes up-front validation) but its
/// `restore` always fails — the canonical mid-flight abort, discoverable
/// only at apply time.
#[derive(Debug, Default)]
struct Fragile {
    version: u32,
    ticks: i64,
}

impl Fragile {
    fn v(version: u32) -> Self {
        Fragile { version, ticks: 0 }
    }
}

impl Component for Fragile {
    fn type_name(&self) -> &str {
        "Fragile"
    }

    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("tick")];
        static IFACE: Interface = Interface::fixed("Fragile", &OPS);
        &IFACE
    }

    fn on_message(&mut self, _ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        if msg.op != "tick" {
            return Err(ComponentError::UnsupportedOperation(msg.op));
        }
        self.ticks += 1;
        Ok(())
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Fragile", self.version).with_field("ticks", Value::from(self.ticks))
    }

    fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), StateError> {
        if self.version >= 2 {
            return Err(StateError::SchemaMismatch(
                "v2 cannot decode v1 snapshots".into(),
            ));
        }
        self.ticks = snapshot
            .require("ticks")?
            .as_int()
            .ok_or_else(|| StateError::SchemaMismatch("ticks must be int".into()))?;
        Ok(())
    }

    fn work_cost(&self, msg: &Message) -> f64 {
        msg.value
            .get("cost")
            .and_then(Value::as_float)
            .unwrap_or(1.0)
    }
}

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    r.register("Fragile", 1, |_| Box::new(Fragile::v(1)));
    r.register("Fragile", 2, |_| Box::new(Fragile::v(2)));
    r.register("Echo", 1, |_| Box::new(EchoComponent::default()));
    r
}

/// `worker` (Fragile v1, node 0) bound to `sink` (Echo, node 1) through
/// `wire`; `victim` (Echo) alone on node 2 — fault-storm territory for
/// the property harness.
fn fixture(seed: u64) -> Runtime {
    let topo = Topology::clique(3, 2000.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, registry());
    let mut cfg = Configuration::new();
    cfg.component("worker", ComponentDecl::new("Fragile", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("Echo", 1, NodeId(1)));
    cfg.component("victim", ComponentDecl::new("Echo", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("worker", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt
}

fn tick(cost: f64) -> Message {
    Message::event("tick", Value::map([("cost", Value::Float(cost))]))
}

/// The strong swap that validates cleanly and then aborts at apply time.
fn poison_swap() -> ReconfigAction {
    ReconfigAction::SwapImplementation {
        name: "worker".into(),
        type_name: "Fragile".into(),
        version: 2,
        transfer: StateTransfer::Snapshot,
    }
}

/// Runs until the report for `id` exists (bounded), returning it.
fn run_to_report(rt: &mut Runtime, id: ReconfigId, deadline: SimTime) -> ReconfigReport {
    while !rt.reports().iter().any(|r| r.id == id) && rt.now() < deadline {
        rt.run_for(SimDuration::from_millis(50));
    }
    rt.reports()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("plan {id} never finished"))
        .clone()
}

// ---------------------------------------------------------------------
// 1. Rejection leaves no trace
// ---------------------------------------------------------------------

#[test]
fn rejected_plan_leaves_graph_and_state_byte_identical() {
    let mut rt = fixture(3);
    for i in 0..20u64 {
        rt.inject_after(SimDuration::from_millis(i * 10), "worker", tick(0.5))
            .expect("inject");
    }
    rt.run_until(SimTime::from_secs(2));

    let g0 = rt.graph_fingerprint();
    let s0 = rt.state_fingerprint();

    // Structurally impossible plans, each rejected by a different check.
    let bad_plans = vec![
        ReconfigPlan::single(ReconfigAction::Migrate {
            name: "ghost".into(),
            to: NodeId(1),
        }),
        ReconfigPlan::single(ReconfigAction::SwapImplementation {
            name: "worker".into(),
            type_name: "NoSuchImpl".into(),
            version: 9,
            transfer: StateTransfer::None,
        }),
        ReconfigPlan::single(ReconfigAction::Migrate {
            name: "worker".into(),
            to: NodeId(7),
        }),
        ReconfigPlan::single(ReconfigAction::RemoveComponent {
            name: "worker".into(), // still bound through `wire`
        }),
        ReconfigPlan::single(ReconfigAction::AddComponent {
            name: "worker".into(), // duplicate
            decl: ComponentDecl::new("Echo", 1, NodeId(0)),
        }),
        ReconfigPlan::single(ReconfigAction::Unbind {
            from: ("sink".into(), "out".into()), // no such binding
        }),
    ];
    let mut ids = Vec::new();
    for plan in bad_plans {
        ids.push(rt.request_reconfig(plan));
    }

    // Rejection is synchronous: reports exist already, nothing applied.
    for id in &ids {
        let report = rt
            .reports()
            .iter()
            .find(|r| r.id == *id)
            .expect("rejected synchronously");
        assert!(!report.success);
        assert!(
            report
                .failure
                .as_deref()
                .is_some_and(|f| f.starts_with("rejected:")),
            "expected a validation rejection, got {:?}",
            report.failure
        );
        assert_eq!(report.actions_applied, 0);
        assert_eq!(report.messages_held, 0);
        assert!(
            report.blackouts.is_empty(),
            "rejection must not block anyone"
        );
    }

    assert_eq!(rt.graph_fingerprint(), g0, "rejection mutated the graph");
    assert_eq!(
        rt.state_fingerprint(),
        s0,
        "rejection mutated component state"
    );

    // Each rejection is audited as one; none was validated, so no channel
    // was ever blocked on a rejected plan's behalf.
    assert_eq!(rt.check_settled(), []);
    assert_eq!(rt.violations_seen(), []);
    let audit = &rt.obs().audit;
    assert!(audit.of_kind(AuditKind::PlanValidated).is_empty());
    assert!(audit.of_kind(AuditKind::ChannelBlocked).is_empty());
}

// ---------------------------------------------------------------------
// 2. Rollback restores the pre-plan configuration graph exactly
// ---------------------------------------------------------------------

#[test]
fn rolled_back_plan_restores_graph_and_state_byte_identically() {
    let mut rt = fixture(5);
    for i in 0..30u64 {
        rt.inject_after(SimDuration::from_millis(i * 10), "worker", tick(0.5))
            .expect("inject");
    }
    rt.run_until(SimTime::from_secs(3)); // quiet: all traffic drained

    let g0 = rt.graph_fingerprint();
    let s0 = rt.state_fingerprint();

    // Three constructive actions commit provisionally, then the poison
    // swap aborts — all three must be compensated in reverse order.
    let mut plan = ReconfigPlan::new();
    plan.push(ReconfigAction::AddComponent {
        name: "spare".into(),
        decl: ComponentDecl::new("Echo", 1, NodeId(1)),
    });
    plan.push(ReconfigAction::AddConnector {
        name: "spare_wire".into(),
        spec: ConnectorSpec::direct("spare_wire"),
    });
    plan.push(ReconfigAction::Migrate {
        name: "worker".into(),
        to: NodeId(2),
    });
    plan.push(poison_swap());
    let id = rt.request_reconfig(plan);
    let report = run_to_report(&mut rt, id, SimTime::from_secs(30));

    assert!(!report.success);
    assert!(
        report
            .failure
            .as_deref()
            .is_some_and(|f| f.contains("cannot decode")),
        "abort reason should surface the restore error: {:?}",
        report.failure
    );
    assert_eq!(
        report.actions_applied, 0,
        "a rolled-back plan commits nothing"
    );

    assert_eq!(rt.graph_fingerprint(), g0, "rollback left graph residue");
    assert_eq!(rt.state_fingerprint(), s0, "rollback left state residue");
    assert_eq!(
        rt.node_of("worker"),
        Some(NodeId(0)),
        "migration not undone"
    );
    assert!(
        rt.lifecycle("spare").is_none(),
        "added component not removed"
    );

    let audit = rt.obs().audit.clone();
    let plan_label = id.to_string();
    let rolled = audit.of_kind(AuditKind::PlanRolledBack);
    assert_eq!(rolled[0].subject(), "3 compensated");
    // Compensations replay the journal in reverse application order.
    let comps: Vec<String> = audit
        .of_kind(AuditKind::ActionCompensated)
        .iter()
        .map(AuditEntry::subject)
        .collect();
    assert_eq!(
        comps,
        vec![
            "undo-migrate: worker back to node0",
            "undo-add: remove connector spare_wire",
            "undo-add: remove spare",
        ]
    );
    // Validation passed (the poison is invisible statically), the swap
    // blocked channels, and the books balance: every one was released.
    assert!(audit
        .of_kind(AuditKind::PlanValidated)
        .iter()
        .any(|e| e.plan() == plan_label));
    assert!(!audit.of_kind(AuditKind::ChannelBlocked).is_empty());
    assert_eq!(rt.check_settled(), []);
    assert_eq!(rt.violations_seen(), []);
}

// ---------------------------------------------------------------------
// 3. No message loss or duplication on channels blocked by an abort
// ---------------------------------------------------------------------

#[test]
fn aborted_plan_releases_held_messages_without_loss_or_duplication() {
    let mut rt = fixture(7);
    // Saturating load (5 ms jobs every 4 ms) so the quiesce window is
    // guaranteed to hold messages when the plan aborts.
    let total = 500u64;
    for i in 0..total {
        rt.inject_after(SimDuration::from_millis(i * 4), "worker", tick(10.0))
            .expect("inject");
    }
    rt.run_until(SimTime::from_millis(600));
    let id = rt.request_reconfig(ReconfigPlan::single(poison_swap()));
    let report = run_to_report(&mut rt, id, SimTime::from_secs(60));
    assert!(!report.success);
    rt.run_until(SimTime::from_secs(120)); // drain everything

    let snap = rt.observe();
    let worker = snap.component("worker").expect("worker");
    assert_eq!(
        worker.processed, total,
        "messages held at the aborted plan's blocked channels were lost or duplicated"
    );
    assert_eq!(snap.dropped, 0, "nothing may be dropped by a rollback");
    // The held messages are visible in the report and audit trail.
    let held = rt.kernel_counters().get("released");
    assert!(held > 0, "the abort window should have held messages");
}

// ---------------------------------------------------------------------
// Satellite: queued plans are re-validated at dequeue time
// ---------------------------------------------------------------------

#[test]
fn queued_plan_is_revalidated_against_the_post_commit_graph() {
    let mut rt = fixture(9);
    // Keep `worker` busy (5 ms jobs every 4 ms) so the first plan cannot
    // finish synchronously.
    for i in 0..200u64 {
        rt.inject_after(SimDuration::from_millis(i * 4), "worker", tick(10.0))
            .expect("inject");
    }
    rt.run_until(SimTime::from_millis(400));

    // Plan A unbinds and removes `worker`. Plan B migrates `worker` —
    // valid against today's graph, impossible once A commits.
    let mut unbind_remove = ReconfigPlan::new();
    unbind_remove.push(ReconfigAction::Unbind {
        from: ("worker".into(), "out".into()),
    });
    unbind_remove.push(ReconfigAction::RemoveComponent {
        name: "worker".into(),
    });
    let a = rt.request_reconfig(unbind_remove);
    let b = rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "worker".into(),
        to: NodeId(0),
    }));
    assert!(
        rt.reconfig_in_progress(),
        "plan A should be waiting for worker to drain, forcing B to queue"
    );

    let ra = run_to_report(&mut rt, a, SimTime::from_secs(60));
    let rb = run_to_report(&mut rt, b, SimTime::from_secs(60));
    assert!(ra.success, "{:?}", ra.failure);
    assert!(!rb.success, "B executed against a graph without its target");
    assert!(
        rb.failure
            .as_deref()
            .is_some_and(|f| f.starts_with("rejected:") && f.contains("unknown component")),
        "B must be rejected at dequeue, not executed: {:?}",
        rb.failure
    );
    assert_eq!(rb.actions_applied, 0);
    // B's rejection is audited as one.
    assert_eq!(rt.check_settled(), []);
    assert_eq!(rt.violations_seen(), []);
}

// ---------------------------------------------------------------------
// Audit reconciliation: submitted = committed + rejected + rolled_back
// ---------------------------------------------------------------------

#[test]
fn audit_reconciles_submissions_with_the_three_outcomes() {
    let mut rt = fixture(11);
    for i in 0..100u64 {
        rt.inject_after(SimDuration::from_millis(i * 10), "worker", tick(2.0))
            .expect("inject");
    }
    rt.run_until(SimTime::from_millis(500));

    // One of each outcome, plus an empty plan (committed synchronously).
    let committed = rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "worker".into(),
        to: NodeId(1),
    }));
    let rolled = rt.request_reconfig(ReconfigPlan::single(poison_swap()));
    let rejected = rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
        name: "ghost".into(),
        to: NodeId(1),
    }));
    let empty = rt.request_reconfig(ReconfigPlan::new());
    for id in [committed, rolled, rejected, empty] {
        run_to_report(&mut rt, id, SimTime::from_secs(60));
    }

    // The books balance: submitted = committed + rejected + rolled back,
    // each audited as its report says, every blocked channel released.
    assert_eq!(rt.check_settled(), []);
    assert_eq!(rt.violations_seen(), []);
    let audit = rt.obs().audit.clone();
    let committed = rt.reports().iter().filter(|r| r.success).count();
    assert_eq!(committed, 2); // the migrate and the empty plan
    assert_eq!(audit.of_kind(AuditKind::PlanRejected).len(), 1);
    assert_eq!(audit.of_kind(AuditKind::PlanRolledBack).len(), 1);
}

// ---------------------------------------------------------------------
// Property harness: ≥128 random fault×plan interleavings
// ---------------------------------------------------------------------

/// One randomized user plan: some valid, some statically invalid, some
/// poisoned (valid statically, abort at apply).
#[derive(Debug, Clone)]
enum UserPlan {
    ValidMigrate(u32),
    ValidWeakSwap,
    PoisonSwap,
    PoisonAfterConstruction,
    UnknownComponent,
    UnknownImpl,
    RemoveBound,
    Duplicate,
    Empty,
}

impl UserPlan {
    fn plan(&self) -> ReconfigPlan {
        match self {
            UserPlan::ValidMigrate(n) => ReconfigPlan::single(ReconfigAction::Migrate {
                name: "worker".into(),
                to: NodeId(n % 2),
            }),
            UserPlan::ValidWeakSwap => ReconfigPlan::single(ReconfigAction::SwapImplementation {
                name: "worker".into(),
                type_name: "Fragile".into(),
                version: 1,
                transfer: StateTransfer::None,
            }),
            UserPlan::PoisonSwap => ReconfigPlan::single(poison_swap()),
            UserPlan::PoisonAfterConstruction => {
                let mut p = ReconfigPlan::new();
                p.push(ReconfigAction::AddComponent {
                    name: "tmp".into(),
                    decl: ComponentDecl::new("Echo", 1, NodeId(1)),
                });
                p.push(ReconfigAction::Migrate {
                    name: "worker".into(),
                    to: NodeId(1),
                });
                p.push(poison_swap());
                p
            }
            UserPlan::UnknownComponent => ReconfigPlan::single(ReconfigAction::Migrate {
                name: "ghost".into(),
                to: NodeId(0),
            }),
            UserPlan::UnknownImpl => ReconfigPlan::single(ReconfigAction::SwapImplementation {
                name: "worker".into(),
                type_name: "NoSuchImpl".into(),
                version: 1,
                transfer: StateTransfer::None,
            }),
            UserPlan::RemoveBound => ReconfigPlan::single(ReconfigAction::RemoveComponent {
                name: "worker".into(),
            }),
            UserPlan::Duplicate => ReconfigPlan::single(ReconfigAction::AddComponent {
                name: "sink".into(),
                decl: ComponentDecl::new("Echo", 1, NodeId(0)),
            }),
            UserPlan::Empty => ReconfigPlan::new(),
        }
    }
}

fn user_plan_strategy() -> impl Strategy<Value = UserPlan> {
    prop_oneof![
        (0u32..2).prop_map(UserPlan::ValidMigrate),
        Just(UserPlan::ValidWeakSwap),
        Just(UserPlan::PoisonSwap),
        Just(UserPlan::PoisonAfterConstruction),
        Just(UserPlan::UnknownComponent),
        Just(UserPlan::UnknownImpl),
        Just(UserPlan::RemoveBound),
        Just(UserPlan::Duplicate),
        Just(UserPlan::Empty),
    ]
}

/// Every non-committed plan leaves the configuration graph exactly as it
/// found it, whatever faults and repairs interleave around it.
fn no_residue_body(
    seed: u64,
    outages: Vec<(u64, u64)>,
    plans: Vec<(u64, UserPlan)>,
) -> Result<(), TestCaseError> {
    let mut rt = fixture(seed);
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    let mut storm = FaultSchedule::new();
    for (at_ms, dur_ms) in &outages {
        storm.node_outage(
            NodeId(2),
            SimTime::from_millis(*at_ms),
            SimTime::from_millis(*at_ms + *dur_ms),
        );
    }
    rt.inject_faults(storm);
    for i in 0..300u64 {
        rt.inject_after(SimDuration::from_millis(i * 20), "worker", tick(4.0))
            .expect("inject");
    }

    let mut schedule = plans;
    schedule.sort_by_key(|(at, _)| *at);
    for (at_ms, up) in schedule {
        rt.run_until(SimTime::from_millis(at_ms));
        if rt.reconfig_in_progress() {
            continue; // only measure windows we can attribute cleanly
        }
        let g_before = rt.graph_fingerprint();
        let before_count = rt.reports().len();
        let id = rt.request_reconfig(up.plan());
        // Run until this plan's report exists.
        let deadline = SimTime::from_secs(120);
        while !rt.reports().iter().any(|r| r.id == id) && rt.now() < deadline {
            rt.run_for(SimDuration::from_millis(20));
        }
        let reports = rt.reports().to_vec();
        let ours = reports.iter().find(|r| r.id == id);
        prop_assert!(ours.is_some(), "plan {} never finished", id);
        let ours = ours.expect("checked");
        // Another plan (e.g. a repair) committing inside the window moves
        // the graph legitimately; only attribute clean windows.
        let other_commit = reports[before_count..]
            .iter()
            .any(|r| r.id != id && r.success && r.actions_applied > 0);
        if !ours.success && !other_commit {
            prop_assert_eq!(
                rt.graph_fingerprint(),
                g_before,
                "non-committed plan {} ({:?}) left graph residue",
                id,
                ours.failure
            );
            prop_assert_eq!(ours.actions_applied, 0, "aborted plan reported commits");
        }
    }
    rt.run_until(SimTime::from_secs(150));

    // The books balance at the end of every interleaving.
    prop_assert_eq!(rt.check_settled(), []);
    prop_assert_eq!(rt.violations_seen(), []);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn non_committed_plans_leave_the_graph_as_found(
        seed in 0u64..10_000,
        outages in prop::collection::vec((500u64..5_000, 300u64..1_500), 0..3),
        plans in prop::collection::vec((200u64..5_500, user_plan_strategy()), 1..5),
    ) {
        no_residue_body(seed, outages, plans)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    #[ignore = "deep tier: run with -- --ignored (CI nightly job)"]
    fn deep_non_committed_plans_leave_the_graph_as_found(
        seed in 0u64..1_000_000,
        outages in prop::collection::vec((500u64..5_000, 300u64..1_500), 0..3),
        plans in prop::collection::vec((200u64..5_500, user_plan_strategy()), 1..5),
    ) {
        no_residue_body(seed, outages, plans)?;
    }
}
