//! E13 — rollback cost and post-abort consistency.
//!
//! Paper claim (§4): reconfiguration must take the system "from one
//! consistent state to another consistent state" — a plan that cannot
//! complete must not leave the architecture half-mutated. The PlanTxn
//! engine guarantees this by journaling a compensating inverse for every
//! applied action and replaying the journal in reverse on abort.
//!
//! Harness: a loaded worker receives a plan of depth *d* — `d-1`
//! constructive actions followed by a strong swap. In the *commit* cells
//! the swap succeeds; in the *rollback* cells the replacement's `restore`
//! fails (a defect only discoverable at apply time), forcing the engine
//! to compensate the whole prefix. The table reports what the abort
//! costs (duration, blackout, messages held at blocked channels) and
//! what it buys: zero residue, where the old leave-as-is semantics would
//! have stranded `d-1` committed actions of a failed plan.

use crate::common::experiment_registry;
use crate::table::{exact, f2, Table, Tier};
use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{ComponentDecl, Configuration};
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::runtime::Runtime;
use aas_obs::{AuditEvent, AuditKind};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

const SEED: u64 = 1301;
/// Per-message work units at node capacity 1500 ⇒ ≈5.3 ms jobs arriving
/// every 5 ms: the worker is always mid-job, so the plan's quiesce
/// window is guaranteed to be real (non-zero blackout, messages held).
const WORK_COST: f64 = 8.0;
const STATE_BYTES: i64 = 200_000;
const REQUEST_GAP_MS: u64 = 5;
const SUBMIT_AT: SimTime = SimTime::from_secs(1);

/// A replacement whose interface matches `Worker` exactly but whose
/// `restore` always fails — invisible to up-front validation, fatal at
/// apply time.
#[derive(Debug, Default)]
struct PoisonWorker;

impl Component for PoisonWorker {
    fn type_name(&self) -> &str {
        "PoisonWorker"
    }

    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("work")];
        static WORKER: Interface = Interface::fixed("Worker", &OPS);
        &WORKER
    }

    fn on_message(&mut self, _ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        if msg.op != "work" {
            return Err(ComponentError::UnsupportedOperation(msg.op));
        }
        Ok(())
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("PoisonWorker", 1)
    }

    fn restore(&mut self, _snapshot: &StateSnapshot) -> Result<(), StateError> {
        Err(StateError::SchemaMismatch(
            "poison replacement cannot decode worker snapshots".into(),
        ))
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Plan depth (total actions).
    pub depth: usize,
    /// `"commit"` or `"rollback"`.
    pub outcome: &'static str,
    /// Plan duration, submit → finish (ms).
    pub duration_ms: f64,
    /// Longest single-component blackout (ms).
    pub max_blackout_ms: f64,
    /// Messages held at blocked channels and released unharmed.
    pub messages_held: u64,
    /// Compensating inverses replayed (rollback cells only).
    pub compensated: usize,
    /// Actions the old leave-as-is semantics would have stranded.
    pub stranded_if_abandoned: usize,
    /// Whether the post-plan graph fingerprint matches the pre-plan one.
    pub graph_intact: bool,
}

fn build() -> Runtime {
    let mut registry = experiment_registry();
    registry.register("PoisonWorker", 1, |_| Box::new(PoisonWorker));
    let topo = Topology::clique(3, 1500.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, SEED, registry);
    let mut cfg = Configuration::new();
    cfg.component(
        "svc",
        ComponentDecl::new("Worker", 1, NodeId(0))
            .with_prop("cost", Value::Float(WORK_COST))
            .with_prop("state_bytes", Value::Int(STATE_BYTES)),
    );
    rt.deploy(&cfg).expect("deploy");
    rt
}

/// The depth-`d` plan: `d-1` constructive actions, then a strong swap —
/// poisoned or benign.
fn plan_of(depth: usize, poison: bool) -> ReconfigPlan {
    let mut plan = ReconfigPlan::new();
    for i in 1..depth {
        plan.push(ReconfigAction::AddComponent {
            name: format!("spare{i}"),
            decl: ComponentDecl::new("Worker", 1, NodeId((i % 3) as u32))
                .with_prop("cost", Value::Float(1.0))
                .with_prop("state_bytes", Value::Int(1_000)),
        });
    }
    plan.push(ReconfigAction::SwapImplementation {
        name: "svc".into(),
        type_name: if poison { "PoisonWorker" } else { "Worker" }.into(),
        version: 1,
        transfer: StateTransfer::Snapshot,
    });
    plan
}

/// Runs one cell: load the worker, fire the depth-`d` plan at t=1s, let
/// everything drain, and read the cost of the outcome off the report and
/// audit trail.
#[must_use]
pub fn run_cell(depth: usize, poison: bool) -> Cell {
    let mut rt = build();
    let horizon = SimTime::from_secs(4);
    let mut t = SimDuration::ZERO;
    while SimTime::ZERO + t < horizon {
        rt.inject_after(t, "svc", Message::request("work", Value::Null))
            .expect("inject");
        t += SimDuration::from_millis(REQUEST_GAP_MS);
    }
    rt.run_until(SUBMIT_AT);
    let g_before = rt.graph_fingerprint();
    let id = rt.request_reconfig(plan_of(depth, poison));
    rt.run_until(horizon + SimDuration::from_secs(20));

    let report = rt
        .reports()
        .iter()
        .find(|r| r.id == id)
        .expect("plan finished")
        .clone();
    assert_eq!(report.success, !poison, "unexpected outcome: {report:?}");
    let compensations = rt.obs().audit.of_kind(AuditKind::ActionCompensated);
    let compensated = compensations
        .iter()
        .filter(|r| matches!(r.event, AuditEvent::ActionCompensated { plan, .. } if plan == id.0))
        .count();
    Cell {
        depth,
        outcome: if poison { "rollback" } else { "commit" },
        duration_ms: report.duration().as_micros() as f64 / 1e3,
        max_blackout_ms: report.max_blackout().as_micros() as f64 / 1e3,
        messages_held: report.messages_held,
        compensated,
        stranded_if_abandoned: if poison { depth - 1 } else { 0 },
        graph_intact: rt.graph_fingerprint() == g_before,
    }
}

/// Runs the depth sweep, commit vs rollback at each depth.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e13",
        tier,
        format!(
            "E13: rollback cost vs plan depth \
             (worker cost {WORK_COST}, state {STATE_BYTES} B, poison swap at depth d)"
        ),
        exact(&[
            "depth",
            "outcome",
            "duration(ms)",
            "max-blackout(ms)",
            "msgs-held",
            "compensated",
            "stranded-if-abandoned",
            "graph-intact",
        ]),
    );
    for depth in [1usize, 2, 4, 8] {
        for poison in [false, true] {
            let c = run_cell(depth, poison);
            table.row(vec![
                c.depth.to_string(),
                c.outcome.to_owned(),
                f2(c.duration_ms),
                f2(c.max_blackout_ms),
                c.messages_held.to_string(),
                c.compensated.to_string(),
                c.stranded_if_abandoned.to_string(),
                if c.graph_intact { "yes" } else { "no" }.to_owned(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_leaves_the_graph_intact_at_every_depth() {
        for depth in [1, 4] {
            let c = run_cell(depth, true);
            assert!(c.graph_intact, "depth {depth} rollback left residue");
            assert_eq!(c.compensated, depth - 1, "whole prefix compensated");
        }
    }

    #[test]
    fn commit_cells_succeed_and_mutate() {
        let shallow = run_cell(1, false);
        assert!(shallow.graph_intact, "depth-1 swap preserves structure");
        assert_eq!(shallow.compensated, 0);
        let deep = run_cell(4, false);
        assert!(!deep.graph_intact, "spares must land on commit");
    }

    #[test]
    fn rollback_cost_is_bounded_and_blackout_real() {
        let c = run_cell(4, true);
        // The loaded worker was quiesced, so the abort held messages and
        // cost a real blackout window — but bounded (well under a second
        // of virtual time for a 4-action plan).
        assert!(c.messages_held > 0, "quiesce held no messages");
        assert!(c.max_blackout_ms > 0.0);
        assert!(c.duration_ms < 5000.0, "rollback took {} ms", c.duration_ms);
    }
}
