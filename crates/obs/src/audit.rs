//! Append-only reconfiguration audit log.
//!
//! Dynamic reconfiguration is the riskiest thing this system does to
//! itself, so every step leaves a record: plan submission, each applied
//! action and its outcome, channel blocks and releases around quiescence,
//! rollbacks, and plan completion. The log is append-only and queryable,
//! which is what lets tests assert that a reconfiguration did *exactly*
//! what its plan said — no missed actions, no phantom ones.

use std::sync::{Arc, Mutex};

/// What an audit entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// A reconfiguration plan was submitted for execution.
    PlanSubmitted,
    /// One action of a plan was applied.
    ActionApplied,
    /// A plan finished (see `outcome` for success/failure).
    PlanFinished,
    /// A plan passed up-front validation and may begin mutating.
    PlanValidated,
    /// A plan was rejected by up-front validation before any mutation.
    PlanRejected,
    /// A plan aborted mid-flight and its applied actions were compensated.
    PlanRolledBack,
    /// One applied action was undone by replaying its compensating inverse.
    ActionCompensated,
    /// A channel was blocked for quiescence.
    ChannelBlocked,
    /// A blocked channel was released.
    ChannelReleased,
    /// A failure detector began suspecting a node.
    FailureSuspected,
    /// A previously suspected node was seen alive again.
    FailureCleared,
    /// A repair policy chose a plan in response to a suspected failure.
    RepairPlanned,
    /// A repair plan completed and service was restored.
    RepairCompleted,
    /// Messages queued on a node at crash time were discarded.
    DroppedOnCrash,
    /// A digital-twin fork predicted the outcome of a repair plan before
    /// it was committed to the mainline.
    TwinPredicted,
    /// The actual, measured outcome of a twin-verified repair; pairs with
    /// the matching [`AuditKind::TwinPredicted`] entry so prediction error
    /// is reconcilable from the log alone.
    TwinActual,
    /// The negotiation coordinator issued a resource grant to an agent.
    BudgetGranted,
    /// The negotiation coordinator denied an agent's request; the record
    /// carries the machine-readable reason ("every agent gets its floor or
    /// an audited deny").
    BudgetDenied,
    /// An outstanding grant was invalidated and queued for renegotiation
    /// (e.g. a repair plan committed mid-tick for the agent's host node).
    BudgetRenegotiated,
}

impl AuditKind {
    /// Stable lowercase label for exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::PlanSubmitted => "plan_submitted",
            AuditKind::ActionApplied => "action_applied",
            AuditKind::PlanFinished => "plan_finished",
            AuditKind::PlanValidated => "plan_validated",
            AuditKind::PlanRejected => "plan_rejected",
            AuditKind::PlanRolledBack => "plan_rolled_back",
            AuditKind::ActionCompensated => "action_compensated",
            AuditKind::ChannelBlocked => "channel_blocked",
            AuditKind::ChannelReleased => "channel_released",
            AuditKind::FailureSuspected => "failure_suspected",
            AuditKind::FailureCleared => "failure_cleared",
            AuditKind::RepairPlanned => "repair_planned",
            AuditKind::RepairCompleted => "repair_completed",
            AuditKind::DroppedOnCrash => "dropped_on_crash",
            AuditKind::TwinPredicted => "twin_predicted",
            AuditKind::TwinActual => "twin_actual",
            AuditKind::BudgetGranted => "budget_granted",
            AuditKind::BudgetDenied => "budget_denied",
            AuditKind::BudgetRenegotiated => "budget_renegotiated",
        }
    }
}

/// One immutable record in the audit log.
#[derive(Debug, Clone)]
pub struct AuditEntry {
    /// Position in the log (0-based, gap-free).
    pub seq: u64,
    /// Caller-supplied timestamp in microseconds (sim time).
    pub at_us: u64,
    /// Record kind.
    pub kind: AuditKind,
    /// Plan this record belongs to; empty for records outside any plan
    /// (e.g. channel blocks issued by the kernel directly).
    pub plan: String,
    /// The subject: an action description, a channel name, etc.
    pub subject: String,
    /// Outcome text (`"ok"`, an error, a reason); may be empty.
    pub outcome: String,
}

/// Shared append-only audit log.
///
/// # Examples
///
/// ```
/// use aas_obs::{AuditKind, AuditLog};
///
/// let log = AuditLog::new();
/// log.plan_submitted("p1", "swap filter implementation", 100);
/// log.action_applied("p1", "swap-implementation filter", "ok", 150);
/// log.plan_finished("p1", "success", 200);
///
/// let p1 = log.for_plan("p1");
/// assert_eq!(p1.len(), 3);
/// assert_eq!(p1[1].kind, AuditKind::ActionApplied);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    entries: Arc<Mutex<Vec<AuditEntry>>>,
}

impl AuditLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        AuditLog::default()
    }

    fn append(&self, at_us: u64, kind: AuditKind, plan: &str, subject: &str, outcome: &str) {
        let mut entries = self.entries.lock().expect("audit log poisoned");
        let seq = entries.len() as u64;
        entries.push(AuditEntry {
            seq,
            at_us,
            kind,
            plan: plan.to_owned(),
            subject: subject.to_owned(),
            outcome: outcome.to_owned(),
        });
    }

    /// Records submission of `plan`.
    pub fn plan_submitted(&self, plan: &str, description: &str, at_us: u64) {
        self.append(at_us, AuditKind::PlanSubmitted, plan, description, "");
    }

    /// Records one applied action of `plan` and its outcome.
    pub fn action_applied(&self, plan: &str, action: &str, outcome: &str, at_us: u64) {
        self.append(at_us, AuditKind::ActionApplied, plan, action, outcome);
    }

    /// Records completion of `plan` with `outcome`.
    pub fn plan_finished(&self, plan: &str, outcome: &str, at_us: u64) {
        self.append(at_us, AuditKind::PlanFinished, plan, "", outcome);
    }

    /// Records that `plan` passed up-front validation; `detail` typically
    /// carries the action count.
    pub fn plan_validated(&self, plan: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::PlanValidated, plan, detail, "");
    }

    /// Records that `plan` was rejected before any mutation, with the
    /// validation `reason`.
    pub fn plan_rejected(&self, plan: &str, reason: &str, at_us: u64) {
        self.append(at_us, AuditKind::PlanRejected, plan, "", reason);
    }

    /// Records that `plan` aborted mid-flight and was rolled back;
    /// `reason` is the triggering failure, `detail` typically carries the
    /// number of compensated actions.
    pub fn plan_rolled_back(&self, plan: &str, reason: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::PlanRolledBack, plan, detail, reason);
    }

    /// Records that one applied `action` of `plan` was undone by its
    /// compensating inverse during rollback.
    pub fn action_compensated(&self, plan: &str, action: &str, at_us: u64) {
        self.append(at_us, AuditKind::ActionCompensated, plan, action, "ok");
    }

    /// Records that `channel` was blocked (for quiescence) under `plan`.
    pub fn channel_blocked(&self, plan: &str, channel: &str, at_us: u64) {
        self.append(at_us, AuditKind::ChannelBlocked, plan, channel, "");
    }

    /// Records that `channel` was released under `plan`.
    pub fn channel_released(&self, plan: &str, channel: &str, at_us: u64) {
        self.append(at_us, AuditKind::ChannelReleased, plan, channel, "");
    }

    /// Records that the failure detector began suspecting `subject` (a
    /// node); `detail` typically carries the phi value crossed.
    pub fn failure_suspected(&self, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::FailureSuspected, "", subject, detail);
    }

    /// Records that a previously suspected `subject` was seen alive again.
    pub fn failure_cleared(&self, subject: &str, at_us: u64) {
        self.append(at_us, AuditKind::FailureCleared, "", subject, "");
    }

    /// Records that a repair policy submitted `plan` for `subject` (the
    /// failed node); `detail` names the policy and actions.
    pub fn repair_planned(&self, plan: &str, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::RepairPlanned, plan, subject, detail);
    }

    /// Records that repair `plan` for `subject` completed; `detail`
    /// typically carries the measured time-to-repair.
    pub fn repair_completed(&self, plan: &str, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::RepairCompleted, plan, subject, detail);
    }

    /// Records messages discarded because their host node crashed with
    /// them still queued; `detail` carries the count.
    pub fn dropped_on_crash(&self, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::DroppedOnCrash, "", subject, detail);
    }

    /// Records a digital-twin prediction for the repair of `subject` (the
    /// failed node): `plan` names the chosen policy, `detail` carries the
    /// predicted scores (availability, MTTR, latency).
    pub fn twin_predicted(&self, plan: &str, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::TwinPredicted, plan, subject, detail);
    }

    /// Records the measured outcome of a twin-verified repair of
    /// `subject`; `detail` carries the actual values next to the
    /// prediction they reconcile against.
    pub fn twin_actual(&self, plan: &str, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::TwinActual, plan, subject, detail);
    }

    /// Records that negotiation epoch `plan` granted `subject` (an agent)
    /// a budget; `detail` renders the granted vector and fraction.
    pub fn budget_granted(&self, epoch: &str, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::BudgetGranted, epoch, subject, detail);
    }

    /// Records that negotiation epoch `plan` denied `subject`'s request
    /// for `reason` (e.g. `floor-unsatisfiable`, `host-suspected`).
    pub fn budget_denied(&self, epoch: &str, subject: &str, reason: &str, at_us: u64) {
        self.append(at_us, AuditKind::BudgetDenied, epoch, subject, reason);
    }

    /// Records that `subject`'s outstanding grant was invalidated before
    /// its epoch ended; `detail` carries the trigger (e.g. the repair plan
    /// id that committed mid-tick).
    pub fn budget_renegotiated(&self, epoch: &str, subject: &str, detail: &str, at_us: u64) {
        self.append(at_us, AuditKind::BudgetRenegotiated, epoch, subject, detail);
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("audit log poisoned").len()
    }

    /// True when the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies all entries, in append order.
    #[must_use]
    pub fn entries(&self) -> Vec<AuditEntry> {
        self.entries.lock().expect("audit log poisoned").clone()
    }

    /// Copies the entries belonging to `plan`, in append order.
    #[must_use]
    pub fn for_plan(&self, plan: &str) -> Vec<AuditEntry> {
        self.entries
            .lock()
            .expect("audit log poisoned")
            .iter()
            .filter(|e| e.plan == plan)
            .cloned()
            .collect()
    }

    /// Copies the entries of a given kind, in append order.
    #[must_use]
    pub fn of_kind(&self, kind: AuditKind) -> Vec<AuditEntry> {
        self.entries
            .lock()
            .expect("audit log poisoned")
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_gap_free() {
        let log = AuditLog::new();
        log.plan_submitted("p", "d", 0);
        log.channel_blocked("p", "a->b", 1);
        log.action_applied("p", "remove-component x", "ok", 2);
        log.channel_released("p", "a->b", 3);
        log.plan_finished("p", "success", 4);
        let entries = log.entries();
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(entries.len(), 5);
    }

    #[test]
    fn queries_filter_correctly() {
        let log = AuditLog::new();
        log.plan_submitted("p1", "", 0);
        log.plan_submitted("p2", "", 1);
        log.action_applied("p1", "bind a b", "ok", 2);
        log.plan_rolled_back("p2", "constraint violated", "0 compensated", 3);
        assert_eq!(log.for_plan("p1").len(), 2);
        assert_eq!(log.for_plan("p2").len(), 2);
        assert_eq!(log.of_kind(AuditKind::PlanRolledBack).len(), 1);
        assert_eq!(
            log.of_kind(AuditKind::PlanRolledBack)[0].outcome,
            "constraint violated"
        );
    }

    #[test]
    fn self_healing_kinds_round_trip() {
        let log = AuditLog::new();
        log.failure_suspected("node1", "phi=3.2", 10);
        log.repair_planned("7", "node1", "failover-migrate: 1 actions", 20);
        log.repair_completed("7", "node1", "mttr_ms=412", 30);
        log.failure_cleared("node1", 40);
        log.dropped_on_crash("coder", "2 queued jobs", 50);
        assert_eq!(log.of_kind(AuditKind::FailureSuspected).len(), 1);
        assert_eq!(log.of_kind(AuditKind::RepairPlanned)[0].plan, "7");
        assert_eq!(
            log.of_kind(AuditKind::RepairCompleted)[0].outcome,
            "mttr_ms=412"
        );
        assert_eq!(AuditKind::DroppedOnCrash.label(), "dropped_on_crash");
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn transactional_kinds_round_trip() {
        let log = AuditLog::new();
        log.plan_submitted("reconfig3", "migrate coder", 0);
        log.plan_validated("reconfig3", "1 actions", 1);
        log.plan_rolled_back("reconfig3", "target node crashed", "1 compensated", 9);
        log.action_compensated("reconfig3", "migrate coder -> node2", 9);
        log.plan_rejected("reconfig4", "unknown component ghost", 12);
        assert_eq!(
            log.of_kind(AuditKind::PlanValidated)[0].subject,
            "1 actions"
        );
        assert_eq!(
            log.of_kind(AuditKind::PlanRolledBack)[0].outcome,
            "target node crashed"
        );
        assert_eq!(log.of_kind(AuditKind::ActionCompensated)[0].outcome, "ok");
        assert_eq!(
            log.of_kind(AuditKind::PlanRejected)[0].outcome,
            "unknown component ghost"
        );
        assert_eq!(AuditKind::PlanValidated.label(), "plan_validated");
        assert_eq!(AuditKind::PlanRejected.label(), "plan_rejected");
        assert_eq!(AuditKind::PlanRolledBack.label(), "plan_rolled_back");
        assert_eq!(AuditKind::ActionCompensated.label(), "action_compensated");
    }

    #[test]
    fn twin_kinds_round_trip() {
        let log = AuditLog::new();
        log.twin_predicted(
            "restart",
            "node2",
            "availability=0.97 mttr_ms=310 latency_ms=4.1",
            10,
        );
        log.twin_actual(
            "restart",
            "node2",
            "availability=0.95 mttr_ms=402 predicted_mttr_ms=310",
            500,
        );
        assert_eq!(log.of_kind(AuditKind::TwinPredicted)[0].subject, "node2");
        assert_eq!(log.of_kind(AuditKind::TwinActual)[0].plan, "restart");
        assert_eq!(AuditKind::TwinPredicted.label(), "twin_predicted");
        assert_eq!(AuditKind::TwinActual.label(), "twin_actual");
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn negotiation_kinds_round_trip() {
        let log = AuditLog::new();
        log.budget_granted("epoch-3", "svc", "cap=0.5 rate=40 fraction=0.66", 10);
        log.budget_denied("epoch-3", "furnace", "floor-unsatisfiable", 10);
        log.budget_renegotiated("epoch-3", "svc", "repair plan 7 committed", 25);
        assert_eq!(log.of_kind(AuditKind::BudgetGranted)[0].subject, "svc");
        assert_eq!(
            log.of_kind(AuditKind::BudgetDenied)[0].outcome,
            "floor-unsatisfiable"
        );
        assert_eq!(
            log.of_kind(AuditKind::BudgetRenegotiated)[0].plan,
            "epoch-3"
        );
        assert_eq!(AuditKind::BudgetGranted.label(), "budget_granted");
        assert_eq!(AuditKind::BudgetDenied.label(), "budget_denied");
        assert_eq!(AuditKind::BudgetRenegotiated.label(), "budget_renegotiated");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn clone_shares_the_log() {
        let log = AuditLog::new();
        let alias = log.clone();
        log.plan_submitted("p", "", 0);
        assert_eq!(alias.len(), 1);
    }
}
