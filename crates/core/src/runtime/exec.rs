//! The transactional reconfiguration engine.
//!
//! A submitted [`ReconfigPlan`] becomes a [`PlanTxn`] — a transaction over
//! the configuration graph with phases **Validate → Quiesce/Block → Apply
//! (journaled) → Commit**:
//!
//! - **Validate** (see [`super::validate`]): the plan is simulated against
//!   a shadow of the current graph; structurally impossible plans are
//!   rejected before any mutation and audited as `plan_rejected`.
//! - **Quiesce/Block**: each disruptive action blocks the channels into
//!   its target and waits for in-flight jobs to drain. Targets stay
//!   blocked until the whole plan commits or rolls back, so the blocked
//!   set is exactly the plan's write-set.
//! - **Apply**: each action asks its structural check again against the
//!   live graph (a change the graph no longer admits rolls the plan back
//!   with the text validation would have given), then every mutation
//!   pushes a compensating [`Undo`] onto the transaction journal.
//!   Channel closures implied by removals are deferred to commit so
//!   rollback can re-insert the original live channels with their held
//!   messages intact.
//! - **Commit** releases held messages in order and closes deferred
//!   channels; **rollback** replays the journal in reverse (each undo
//!   audited as `action_compensated`), releases blocked channels and
//!   restores pre-plan lifecycles — the graph is exactly as the plan
//!   found it.
//!
//! The journal, the blocked targets and their channels, the deferred
//! closures, the scans' scratch and the text of the record being audited
//! are the engine's [`TxnWork`], kept between plans and empty between
//! them: a warm plan allocates only what its report and its audit records
//! keep.
//!
//! Queued plans are re-validated at dequeue time against the then-current
//! graph, so a plan queued behind one that aborted (or that consumed the
//! resources it needed) is rejected instead of executed blindly.
//!
//! Every plan enters through [`Runtime::submit`] with its [`PlanOrigin`]
//! and, however it ends — committed, rolled back, rejected at submission
//! or at dequeue — leaves through [`Runtime::plan_ended`], which tells the
//! submitter. The submitters keep no list of their own plans: what is in
//! flight, and for whom, is [`ExecState::in_flight`].

use super::validate::Shadow;
use super::*;
use std::fmt::{self, Write as _};

/// Who submitted a plan, and on whose behalf: recorded when the plan is
/// submitted, read when it ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PlanOrigin {
    /// [`Runtime::request_reconfig`], from outside the runtime.
    User,
    /// A RAML rule.
    Raml,
    /// The heal loop's repair of `node`, planned by the policy labelled
    /// `label` — the twin's choice where it made one, else the static
    /// policy.
    Repair { node: NodeId, label: &'static str },
    /// The negotiator's migration of the starving agent `agent`.
    Migration { agent: InstId },
}

/// Grouped plan-execution state: id allocation, the active transaction,
/// the submission queue and finished reports.
#[derive(Debug, Default)]
pub(super) struct ExecState {
    /// Last allocated reconfiguration id (ids are 1-based).
    pub(super) last_id: u64,
    /// The transaction currently executing, if any.
    pub(super) active: Option<PlanTxn>,
    /// Plans waiting behind the active transaction, in submission order.
    pub(super) queued: VecDeque<(ReconfigId, PlanOrigin, ReconfigPlan)>,
    /// Reports of finished plans, oldest first.
    pub(super) reports: Vec<ReconfigReport>,
    /// The plan [`Runtime::submit`] is running right now, with its report
    /// if it has already ended (see [`Runtime::plan_ended`]).
    submitting: Option<(ReconfigId, Option<ReconfigReport>)>,
    /// How the reported plans ended.
    pub(super) ended: PlanTally,
    /// The active transaction's working buffers, empty between plans.
    work: TxnWork,
}

/// What a transaction works with and keeps nothing of when it ends. The
/// engine keeps these buffers from one plan to the next, so a warm plan
/// grows none of them.
#[derive(Debug, Default)]
struct TxnWork {
    /// Compensating inverses of applied actions, in application order.
    journal: Vec<Undo>,
    /// The connectors the journal's re-insertions put back, in the same
    /// order.
    displaced: Vec<Connector>,
    /// Quiesced targets and the lifecycle each returns to on rollback, in
    /// the order they were blocked; they stay blocked until commit or
    /// rollback.
    blocked: Vec<(Name, Lifecycle)>,
    /// The channels blocked on the targets' behalf, each with its target,
    /// in the order they were blocked.
    blocked_channels: Vec<(Name, ChannelId)>,
    /// Channels whose closure (from removals/unbinds) is deferred to
    /// commit so rollback can resurrect them intact.
    deferred_close: Vec<ChannelId>,
    /// The channels a quiesce scan found, and the reply channels it
    /// looked through.
    inbound: Vec<ChannelId>,
    replies: Vec<((InstId, InstId), ChannelId)>,
    /// The channels a migration re-homes, with their new ends.
    rehome: Vec<(ChannelId, NodeId, NodeId)>,
    /// The rendered action, refusal or rollback reason being audited.
    text: String,
}

impl ExecState {
    /// The engine a digital twin starts from: idle, and numbering its
    /// plans on from this one's.
    pub(super) fn fork(&self) -> ExecState {
        ExecState {
            last_id: self.last_id,
            ..ExecState::default()
        }
    }

    /// The origins of the plans in the engine: the active one, then the
    /// queued ones.
    pub(super) fn in_flight(&self) -> impl Iterator<Item = PlanOrigin> + '_ {
        let active = self.active.iter().map(|txn| txn.origin);
        active.chain(self.queued.iter().map(|(_, origin, _)| *origin))
    }

    /// The ids of the plans in the engine, in the order of
    /// [`ExecState::in_flight`].
    pub(super) fn in_flight_ids(&self) -> impl Iterator<Item = ReconfigId> + '_ {
        let active = self.active.iter().map(|txn| txn.id);
        active.chain(self.queued.iter().map(|(id, _, _)| *id))
    }
}

#[derive(Debug)]
enum ExecPhase {
    Idle,
    AwaitQuiesce { action: ReconfigAction },
    AwaitTransfer { action: ReconfigAction },
}

/// A compensating journal entry, pushed by the apply step of the action
/// it undoes: what was added is removed, what was moved is moved back, and
/// what was removed or displaced is re-inserted from the runtime object
/// captured when it was.
#[derive(Debug)]
enum Undo {
    /// Retire an added instance again.
    RemoveComponent { name: Name },
    /// Move a migrated instance back to the node it left.
    MigrateBack { name: Name, to: NodeId },
    /// Remove an added connector again.
    RemoveConnector { name: Name },
    /// Remove an added binding, rooted at this `(instance, port)` source.
    Unbind { from: (String, String) },
    /// Restore the implementation a swap displaced.
    RestoreImpl {
        name: Name,
        component: Box<dyn Component>,
        type_name: Name,
        version: u32,
    },
    /// Re-insert a removed instance together with its channels.
    ReinsertInstance {
        instance: Box<Instance>,
        replies: Vec<((InstId, InstId), ChannelId)>,
    },
    /// Re-insert a removed binding (its channels were never closed —
    /// closure is deferred to commit).
    ReinsertBinding(BindingRt),
    /// Re-insert a removed or interchanged connector object (preserving
    /// its id and statistics): the last of [`TxnWork::displaced`].
    ReinsertConnector { name: Name },
}

impl fmt::Display for Undo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Undo::RemoveComponent { name } => write!(f, "undo-add: remove {name}"),
            Undo::MigrateBack { name, to } => write!(f, "undo-migrate: {name} back to {to}"),
            Undo::RemoveConnector { name } => write!(f, "undo-add: remove connector {name}"),
            Undo::Unbind { from } => write!(f, "undo-bind: unbind {}.{}", from.0, from.1),
            Undo::RestoreImpl {
                name,
                type_name,
                version,
                ..
            } => write!(f, "undo-swap: restore {name} to {type_name} v{version}"),
            Undo::ReinsertInstance { instance, .. } => {
                write!(f, "undo-remove: reinsert {}", instance.name)
            }
            Undo::ReinsertBinding(binding) => {
                let from = &binding.decl.from;
                write!(f, "undo-unbind: rebind {}.{}", from.0, from.1)
            }
            Undo::ReinsertConnector { name, .. } => {
                write!(f, "undo: reinsert connector {name}")
            }
        }
    }
}

/// Renders `args` into a string of exactly their length: one allocation,
/// where `format!` may grow its buffer several times. For a text a report
/// keeps.
pub(super) fn render(args: fmt::Arguments<'_>) -> String {
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    let _ = len.write_fmt(args);
    let mut text = String::with_capacity(len.0);
    let _ = text.write_fmt(args);
    text
}

/// An executing reconfiguration transaction.
#[derive(Debug)]
pub(super) struct PlanTxn {
    id: ReconfigId,
    origin: PlanOrigin,
    actions: VecDeque<ReconfigAction>,
    started_at: SimTime,
    phase: ExecPhase,
    blackouts: Vec<(Name, SimDuration)>,
    messages_held: u64,
    state_bytes: u64,
    applied: usize,
    /// Instances moved by committed migrate actions, in order.
    moved: Vec<String>,
}

impl Runtime {
    /// Submits a reconfiguration plan. Plans run one at a time; extra
    /// submissions queue in order and are re-validated against the live
    /// configuration graph when they reach the front. Returns the plan's
    /// id; when the plan ends, its report is added to
    /// [`Runtime::reports`] and the audit log records its
    /// `plan_finished`.
    pub fn request_reconfig(&mut self, plan: ReconfigPlan) -> ReconfigId {
        let (id, ended) = self.submit(plan, PlanOrigin::User);
        self.exec.reports.extend(ended);
        id
    }

    /// The one way into the engine, for every submitter. A plan that ends
    /// inside the call hands its report back, for the submitter to book
    /// and publish; any other ends in [`Runtime::plan_ended`].
    pub(super) fn submit(
        &mut self,
        plan: ReconfigPlan,
        origin: PlanOrigin,
    ) -> (ReconfigId, Option<ReconfigReport>) {
        self.exec.last_id += 1;
        let id = ReconfigId(self.exec.last_id);
        let now = self.kernel.now();
        let actions = plan.len() as u64;
        let submitted = AuditEvent::PlanSubmitted {
            plan: id.0,
            actions,
        };
        self.obs.audit.append(now.as_micros(), submitted);
        if self.exec.active.is_some() {
            self.exec.queued.push_back((id, origin, plan));
        } else {
            // A plan with nothing to wait for runs to its end right here.
            self.exec.submitting = Some((id, None));
            self.start_exec(id, origin, plan);
            self.advance_reconfig();
        }
        (id, self.exec.submitting.take().and_then(|(_, end)| end))
    }

    /// The one way out: books the end of a plan — committed, rolled back
    /// or rejected, on any event after its submission — with whoever
    /// submitted it, then publishes the report.
    ///
    /// The end of the plan `submit` is still running goes back to its
    /// submitter, so the audit log reads `plan_submitted … plan_finished`,
    /// `repair_planned`, `repair_completed` whether or not the plan had
    /// anything to wait for.
    fn plan_ended(&mut self, origin: PlanOrigin, report: ReconfigReport) {
        if let Some((id, end)) = self.exec.submitting.as_mut() {
            if *id == report.id {
                *end = Some(report);
                return;
            }
        }
        if origin != PlanOrigin::User {
            self.meta_call(|meta, door| meta.plan_ended(door, origin, &report));
        }
        self.exec.reports.push(report);
    }

    /// Completed reconfiguration reports, oldest first.
    #[must_use]
    pub fn reports(&self) -> &[ReconfigReport] {
        &self.exec.reports
    }

    /// Whether a reconfiguration is currently executing.
    #[must_use]
    pub fn reconfig_in_progress(&self) -> bool {
        self.exec.active.is_some()
    }

    /// Validates `plan` against the live graph and, if it passes, opens
    /// its transaction. Rejected plans never mutate anything: they are
    /// audited, reported and dropped.
    fn start_exec(&mut self, id: ReconfigId, origin: PlanOrigin, plan: ReconfigPlan) {
        let now_us = self.kernel.now().as_micros();
        if let Err(failure) = self.validate_plan(&plan) {
            self.reject_plan(id, origin, failure);
            return;
        }
        let validated = AuditEvent::PlanValidated {
            plan: id.0,
            actions: plan.len() as u64,
        };
        self.obs.audit.append(now_us, validated);
        self.exec.active = Some(PlanTxn {
            id,
            origin,
            actions: plan.into_actions().into(),
            started_at: self.kernel.now(),
            phase: ExecPhase::Idle,
            blackouts: Vec::new(),
            messages_held: 0,
            state_bytes: 0,
            applied: 0,
            moved: Vec::new(),
        });
    }

    /// Books a validation rejection: audit (`plan_rejected` + a
    /// `plan_finished` so submissions always reconcile with finishes) and
    /// a zero-action report, which keeps `failure`, the `rejected: `
    /// refusal the audit record gives the reason of.
    fn reject_plan(&mut self, id: ReconfigId, origin: PlanOrigin, failure: String) {
        let now = self.kernel.now();
        let mut reason = self.text_buffer();
        reason.push_str(failure.strip_prefix("rejected: ").unwrap_or(&failure));
        let rejected = AuditEvent::PlanRejected { plan: id.0, reason };
        self.append_with_text(now.as_micros(), rejected);
        let finished = AuditEvent::PlanFinished {
            plan: id.0,
            committed: false,
        };
        self.obs.audit.append(now.as_micros(), finished);
        self.exec.ended.rejected += 1;
        let report = ReconfigReport {
            id,
            started_at: now,
            finished_at: now,
            success: false,
            failure: Some(failure),
            actions_applied: 0,
            blackouts: Vec::new(),
            messages_held: 0,
            state_bytes_transferred: 0,
            migrated: Vec::new(),
        };
        self.plan_ended(origin, report);
    }

    pub(super) fn advance_reconfig(&mut self) {
        loop {
            let Some(txn) = self.exec.active.as_mut() else {
                // Start the next queued plan, if any; `start_exec`
                // re-validates it against the graph as it now stands.
                let Some((id, origin, plan)) = self.exec.queued.pop_front() else {
                    return;
                };
                self.start_exec(id, origin, plan);
                continue;
            };
            let phase = std::mem::replace(&mut txn.phase, ExecPhase::Idle);
            let mut action = match phase {
                ExecPhase::Idle => {
                    let Some(action) = self
                        .exec
                        .active
                        .as_mut()
                        .and_then(|e| e.actions.pop_front())
                    else {
                        self.commit_txn();
                        continue;
                    };
                    if let Some(target) = action.quiesce_target() {
                        self.begin_quiesce(target);
                        self.exec.active.as_mut().expect("active").phase =
                            ExecPhase::AwaitQuiesce { action };
                        continue; // mutate now if already drained
                    }
                    action
                }
                ExecPhase::AwaitQuiesce { action } => {
                    let target = action.quiesce_target().expect("quiesce action");
                    if self
                        .instances
                        .by_name(target)
                        .is_some_and(|i| i.lifecycle != Lifecycle::Quiescent)
                    {
                        // Not drained yet; keep waiting.
                        self.exec.active.as_mut().expect("active").phase =
                            ExecPhase::AwaitQuiesce { action };
                        return;
                    }
                    action
                }
                ExecPhase::AwaitTransfer { action } => {
                    // Re-entered from the TransferDone timer; the mutation
                    // itself was journaled when it was applied.
                    self.record_action(&action);
                    continue;
                }
            };
            match self.apply_action(&mut action) {
                Ok(Some(delay)) => {
                    self.arm(delay, TimerPurpose::TransferDone);
                    self.exec.active.as_mut().expect("active").phase =
                        ExecPhase::AwaitTransfer { action };
                    return;
                }
                // A quiesced target stays blocked until the whole plan
                // commits; release happens in `commit_txn`.
                Ok(None) => self.record_action(&action),
                Err(e) => self.abort_txn(render(format_args!("{action}: {e}"))),
            }
        }
    }

    /// The engine's text buffer, emptied, for a record's text to be
    /// rendered into. [`Runtime::append_with_text`] gives it back: a text
    /// a record encodes is not kept, so it is not allocated per record.
    fn text_buffer(&mut self) -> String {
        let mut text = std::mem::take(&mut self.exec.work.text);
        text.clear();
        text
    }

    /// Appends `event`, taking back the text buffer it carries.
    fn append_with_text(&mut self, at_us: u64, event: AuditEvent) {
        self.obs.audit.append(at_us, &event);
        if let AuditEvent::ActionApplied { action: text, .. }
        | AuditEvent::ActionCompensated { action: text, .. }
        | AuditEvent::PlanRejected { reason: text, .. }
        | AuditEvent::PlanRolledBack { reason: text, .. } = event
        {
            self.exec.work.text = text;
        }
    }

    /// Counts one applied action into the active transaction and records
    /// it in the audit log.
    fn record_action(&mut self, action: &ReconfigAction) {
        let now_us = self.kernel.now().as_micros();
        if let Some(exec) = self.exec.active.as_mut() {
            exec.applied += 1;
            let plan = exec.id.0;
            let mut text = self.text_buffer();
            let _ = write!(text, "{action}");
            let applied = AuditEvent::ActionApplied { plan, action: text };
            self.append_with_text(now_us, applied);
        }
    }

    /// Pushes a compensating inverse onto the active transaction's
    /// journal.
    fn journal(&mut self, undo: Undo) {
        if self.exec.active.is_some() {
            self.exec.work.journal.push(undo);
        }
    }

    /// Journals the re-insertion of `connector`, removed or displaced from
    /// `name`. The connector waits in [`TxnWork::displaced`], so a
    /// journal entry stays small without a box of its own.
    fn journal_connector(&mut self, name: Name, connector: Connector) {
        if self.exec.active.is_some() {
            self.exec.work.displaced.push(connector);
            self.exec
                .work
                .journal
                .push(Undo::ReinsertConnector { name });
        }
    }

    /// Defers a channel closure to commit time, so rollback can re-insert
    /// the still-open channel (held messages intact).
    fn defer_close(&mut self, ch: ChannelId) {
        if self.exec.active.is_some() {
            self.exec.work.deferred_close.push(ch);
        }
    }

    /// Blocks every channel delivering into `name` and marks it
    /// `Quiescing` (or `Quiescent` if already drained). The target stays
    /// blocked until the transaction commits or rolls back; quiescing the
    /// same target twice in one plan is a no-op.
    fn begin_quiesce(&mut self, name: &str) {
        let now = self.kernel.now();
        let Some(txn) = self.exec.active.as_ref() else {
            return;
        };
        let work = &mut self.exec.work;
        if work.blocked.iter().any(|(target, _)| target == name) {
            return; // already blocked by an earlier action of this plan
        }
        let plan = txn.id.0;
        let target = match self.instances.id(name) {
            Some(id) => self.instances.name(id).clone(),
            None => Name::from(name.to_owned()),
        };
        let mut channels = std::mem::take(&mut work.inbound);
        self.inbound_channels(name, &mut channels);
        for ch in channels.drain(..) {
            self.kernel.block_channel(ch);
            let blocked = AuditEvent::ChannelBlocked {
                plan,
                channel: ch.0,
                target: target.clone(),
            };
            self.obs.audit.append(now.as_micros(), blocked);
            self.exec.work.blocked_channels.push((target.clone(), ch));
        }
        self.exec.work.inbound = channels;
        let mut prior = Lifecycle::Active;
        if let Some(inst) = self.instances.by_name_mut(name) {
            prior = inst.lifecycle;
            // `Failed` instances can be quiesced too — that is exactly how
            // repair plans reach them (a crash cancelled their in-flight
            // jobs, so they drain immediately).
            if matches!(inst.lifecycle, Lifecycle::Active | Lifecycle::Failed) {
                inst.lifecycle = if inst.inflight == 0 {
                    Lifecycle::Quiescent
                } else {
                    Lifecycle::Quiescing
                };
                inst.blocked_at = Some(now);
            }
        }
        self.exec.work.blocked.push((target, prior));
    }

    /// Appends to `out` every channel delivering into `name`: its
    /// external channel, the reply channels it is the requester of, the
    /// binding channels it is a target of.
    fn inbound_channels(&mut self, name: &str, out: &mut Vec<ChannelId>) {
        let Some(id) = self.instances.id(name) else {
            return;
        };
        out.push(self.instances.get(id).expect("id is live").external);
        let mut replies = std::mem::take(&mut self.exec.work.replies);
        self.reply_channels_of(id, &mut replies);
        out.extend(
            replies
                .drain(..)
                .filter(|((_, to), _)| *to == id)
                .map(|(_, ch)| ch),
        );
        self.exec.work.replies = replies;
        for b in self.bindings() {
            out.extend(
                b.targets
                    .iter()
                    .filter(|(to, _)| *to == id)
                    .map(|(_, ch)| *ch),
            );
        }
    }

    /// Appends to `out` the reply channels `id` is either end of, ordered
    /// by `(replier, requester)` name — the order blocks, releases and
    /// closures of them are issued and audited in.
    fn reply_channels_of(&self, id: InstId, out: &mut Vec<((InstId, InstId), ChannelId)>) {
        let start = out.len();
        out.extend(
            self.reply_channels
                .iter()
                .filter(|((from, to), _)| *from == id || *to == id)
                .map(|(key, ch)| (*key, *ch)),
        );
        // No two keys share both names, so the unstable sort is the
        // stable one.
        out[start..].sort_unstable_by_key(|((from, to), _)| {
            (self.instances.name(*from), self.instances.name(*to))
        });
    }

    /// Rebinds every channel touching `id`'s instance to its new node:
    /// its external channel, its reply channels and its binding channels.
    fn rehome_channels(&mut self, id: InstId, node: NodeId) {
        let node_of = |other: InstId| {
            if other == id {
                Some(node)
            } else {
                self.instances.get(other).map(|i| i.node)
            }
        };
        let mut updates = std::mem::take(&mut self.exec.work.rehome);
        if let Some(inst) = self.instances.get(id) {
            updates.push((inst.external, node, node));
        }
        for (&(from, to), &ch) in &self.reply_channels {
            if from == id || to == id {
                if let (Some(s), Some(d)) = (node_of(from), node_of(to)) {
                    updates.push((ch, s, d));
                }
            }
        }
        for (src, inst) in self.instances.iter() {
            for &(to, ch) in inst.ports.iter().flat_map(|b| &b.targets) {
                if src == id || to == id {
                    if let (Some(s), Some(d)) = (node_of(src), node_of(to)) {
                        updates.push((ch, s, d));
                    }
                }
            }
        }
        for (ch, s, d) in updates.drain(..) {
            self.kernel.rebind_channel(ch, s, d);
        }
        self.exec.work.rehome = updates;
    }

    /// Commit: run deferred channel closures, release every held message
    /// in order, return targets to `Active`, book blackouts, and finish
    /// the transaction successfully.
    fn commit_txn(&mut self) {
        let Some(mut txn) = self.exec.active.take() else {
            return;
        };
        // Deferred closures from removals/unbinds close without
        // re-queueing their held messages — those were destined for a
        // component or binding that no longer exists.
        let mut deferred = std::mem::take(&mut self.exec.work.deferred_close);
        for ch in deferred.drain(..) {
            self.close_now(ch, txn.id);
        }
        self.exec.work.deferred_close = deferred;
        self.release_blocked(&mut txn, true);
        self.finish_reconfig(txn, None);
    }

    /// Rollback: replay the journal in reverse (each undo audited as
    /// `action_compensated`), release blocked channels, restore pre-plan
    /// lifecycles, abandon deferred closures (their removals were just
    /// reverted), and finish the transaction as failed. Afterwards the
    /// configuration graph is exactly as the plan found it.
    fn abort_txn(&mut self, reason: String) {
        let now = self.kernel.now();
        let Some(mut txn) = self.exec.active.take() else {
            return;
        };
        let plan = txn.id.0;
        let mut compensated = 0;
        while let Some(undo) = self.exec.work.journal.pop() {
            let mut action = self.text_buffer();
            let _ = write!(action, "{undo}");
            self.apply_undo(undo, txn.id);
            let undone = AuditEvent::ActionCompensated { plan, action };
            self.append_with_text(now.as_micros(), undone);
            compensated += 1;
        }
        let mut text = self.text_buffer();
        text.push_str(&reason);
        let rolled_back = AuditEvent::PlanRolledBack {
            plan,
            compensated,
            reason: text,
        };
        self.append_with_text(now.as_micros(), rolled_back);
        self.release_blocked(&mut txn, false);
        // Every deferred closure stems from a removal that was just
        // compensated; the channels stay open.
        self.exec.work.deferred_close.clear();
        // Nothing stays committed: the report reflects the rollback.
        txn.applied = 0;
        self.finish_reconfig(txn, Some(reason));
    }

    /// Releases every target the transaction still blocks, in name order:
    /// its channels hand their held messages on in order, and the target
    /// returns to `Active` if the plan `committed`, to the lifecycle the
    /// plan found it in if not. The block→release window is the target's
    /// blackout.
    fn release_blocked(&mut self, txn: &mut PlanTxn, committed: bool) {
        let now = self.kernel.now();
        let work = &mut self.exec.work;
        // Names are unique here, so the unstable sort is the stable one.
        work.blocked.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        txn.blackouts.reserve_exact(work.blocked.len());
        for (name, prior) in work.blocked.drain(..) {
            let channels = || {
                let of_target = work.blocked_channels.iter();
                of_target.filter(|(t, _)| *t == name).map(|(_, ch)| *ch)
            };
            let held: u64 = channels()
                .map(|ch| self.kernel.channel_stats(ch).held)
                .sum();
            for ch in channels() {
                self.kernel.unblock_channel(ch);
                let released = AuditEvent::ChannelReleased {
                    plan: txn.id.0,
                    channel: ch.0,
                    target: Some(name.clone()),
                };
                self.obs.audit.append(now.as_micros(), released);
            }
            if let Some(inst) = self.instances.by_name_mut(&name) {
                inst.lifecycle = if committed { Lifecycle::Active } else { prior };
                if let Some(at) = inst.blocked_at.take() {
                    txn.blackouts.push((name, now.saturating_since(at)));
                    txn.messages_held += held;
                }
            }
        }
        work.blocked_channels.clear();
    }

    /// Applies one compensating inverse during rollback.
    fn apply_undo(&mut self, undo: Undo, plan: ReconfigId) {
        match undo {
            Undo::RemoveComponent { name } => {
                if let Some(id) = self.instances.id(&name) {
                    let inst = self.instances.remove(&name).expect("id is live");
                    self.close_now(inst.external, plan);
                    let mut replies = Vec::new();
                    self.reply_channels_of(id, &mut replies);
                    for (key, ch) in replies {
                        self.reply_channels.remove(&key);
                        self.close_now(ch, plan);
                    }
                }
                let work = &mut self.exec.work;
                work.blocked.retain(|(target, _)| *target != name);
                work.blocked_channels.retain(|(target, _)| *target != name);
            }
            Undo::MigrateBack { name, to } => {
                if let Some(id) = self.instances.id(&name) {
                    self.instances.get_mut(id).expect("id is live").node = to;
                    self.rehome_channels(id, to);
                }
            }
            Undo::RemoveConnector { name } => {
                self.connectors.remove(&name);
            }
            Undo::Unbind { from } => {
                if let Some(b) = self.take_binding(&from) {
                    for (_, ch) in b.targets {
                        self.close_now(ch, plan);
                    }
                }
            }
            Undo::RestoreImpl {
                name,
                component,
                type_name,
                version,
            } => {
                if let Some(inst) = self.instances.by_name_mut(&name) {
                    inst.component = component;
                    inst.type_name = type_name;
                    inst.version = version;
                }
            }
            Undo::ReinsertInstance { instance, replies } => {
                let name = instance.name.clone();
                self.instances.insert(&name, *instance);
                self.reply_channels.extend(replies);
            }
            Undo::ReinsertBinding(binding) => self.put_binding(binding),
            Undo::ReinsertConnector { name } => {
                let connector = self.exec.work.displaced.pop();
                self.connectors
                    .insert(&name, connector.expect("journaled with its connector"));
            }
        }
    }

    /// Closes a channel for good — a removal's at commit, an addition's
    /// at rollback — first auditing its release if `plan` had blocked it
    /// (blocks and releases stay balanced in the audit log).
    fn close_now(&mut self, ch: ChannelId, plan: ReconfigId) {
        let blocked = &mut self.exec.work.blocked_channels;
        if let Some(at) = blocked.iter().position(|(_, c)| *c == ch) {
            blocked.remove(at);
            let released = AuditEvent::ChannelReleased {
                plan: plan.0,
                channel: ch.0,
                target: None,
            };
            self.obs
                .audit
                .append(self.kernel.now().as_micros(), released);
        }
        self.kernel.close_channel(ch);
    }

    /// The apply step: asks the structural check of `action` against the
    /// live graph (directly, or through the structural call that makes
    /// the change), then mutates, journaling the compensating inverse.
    /// Returns `Ok(Some(delay))` when a simulated state transfer must
    /// elapse before the action completes, `Ok(None)` when the mutation
    /// is already complete. A connector's spec moves out of its action
    /// into the connector: all that is read of the action afterwards is
    /// what it renders, its kind and its names.
    fn apply_action(
        &mut self,
        action: &mut ReconfigAction,
    ) -> Result<Option<SimDuration>, RuntimeError> {
        let kind = action.kind();
        match action {
            ReconfigAction::SwapImplementation {
                name,
                type_name,
                version,
                transfer,
            } => {
                let (_, type_name, mut replacement) =
                    Shadow::live(self).swap_implementation(name, type_name, *version)?;
                let id = self.instances.id(name).expect("checked");
                let inst = self.instances.get(id).expect("id is live");
                let mut transferred = 0;
                let delay = match transfer {
                    StateTransfer::None => None,
                    StateTransfer::Snapshot => {
                        let snap = inst.component.snapshot();
                        transferred = snap.transfer_size();
                        replacement
                            .restore(&snap)
                            .map_err(|e| RuntimeError::ReconfigFailed {
                                action: kind.to_owned(),
                                reason: e.to_string(),
                            })?;
                        // Encoding + decoding the context costs node time.
                        let cost = 0.5 + transferred as f64 / 1e6;
                        let node = inst.node;
                        self.kernel.run_job(node, cost)
                    }
                };
                let inst = self.instances.get_mut(id).expect("id is live");
                let old = std::mem::replace(&mut inst.component, replacement);
                let old_type = std::mem::replace(&mut inst.type_name, type_name);
                let old_version = std::mem::replace(&mut inst.version, *version);
                self.journal(Undo::RestoreImpl {
                    name: self.instances.name(id).clone(),
                    component: old,
                    type_name: old_type,
                    version: old_version,
                });
                if let Some(exec) = self.exec.active.as_mut() {
                    exec.state_bytes += transferred;
                }
                Ok(delay)
            }
            ReconfigAction::Migrate { name, to } => {
                Shadow::live(self).migrate(name, *to)?;
                let id = self.instances.id(name).expect("checked");
                let inst = self.instances.get(id).expect("id is live");
                let from_node = inst.node;
                let snap = inst.component.snapshot();
                let bytes = snap.transfer_size();
                let transit = if self.kernel.topology().node(from_node).is_up() {
                    self.kernel
                        .route(from_node, *to, bytes)
                        .ok_or_else(|| RuntimeError::NodeUnavailable(to.to_string()))?
                        .transit
                } else {
                    // Recovery migration: the source node is down, so the
                    // state comes from its last checkpoint, restored at the
                    // destination (cost charged to the destination node).
                    let cost = 1.0 + bytes as f64 / 1e6;
                    self.kernel
                        .run_job(*to, cost)
                        .ok_or_else(|| RuntimeError::NodeUnavailable(to.to_string()))?
                };
                // Commit the move now; the transfer delay elapses before
                // the action completes. The inverse migrates back.
                self.instances.get_mut(id).expect("id is live").node = *to;
                self.rehome_channels(id, *to);
                self.journal(Undo::MigrateBack {
                    name: self.instances.name(id).clone(),
                    to: from_node,
                });
                if let Some(exec) = self.exec.active.as_mut() {
                    exec.state_bytes += bytes;
                    exec.moved.push(name.clone());
                }
                Ok(Some(transit))
            }
            ReconfigAction::RemoveComponent { name } => {
                Shadow::live(self).remove_component(name)?;
                let id = self.instances.id(name).expect("checked");
                let instance = self.instances.remove(name).expect("id is live");
                let mut replies = Vec::new();
                self.reply_channels_of(id, &mut replies);
                // Closure is deferred to commit: rollback re-inserts the
                // same live channels with their held messages intact.
                self.defer_close(instance.external);
                for (key, ch) in &replies {
                    self.reply_channels.remove(key);
                    self.defer_close(*ch);
                }
                self.journal(Undo::ReinsertInstance {
                    instance: Box::new(instance),
                    replies,
                });
                Ok(None)
            }
            ReconfigAction::AddComponent { name, decl } => {
                self.add_component(name, decl)?;
                let id = self.instances.id(name).expect("just added");
                let name = self.instances.name(id).clone();
                self.journal(Undo::RemoveComponent { name });
                Ok(None)
            }
            ReconfigAction::AddConnector { name, spec } => {
                self.add_connector(std::mem::replace(
                    spec,
                    ConnectorSpec::direct(String::new()),
                ))?;
                let id = self.connectors.id(name).expect("just added");
                let name = self.connectors.name(id).clone();
                self.journal(Undo::RemoveConnector { name });
                Ok(None)
            }
            ReconfigAction::SwapConnector { name, spec } => {
                // The replacement `adapt_connector` makes, with the
                // displaced connector captured for the journal.
                let spec = std::mem::replace(spec, ConnectorSpec::direct(String::new()));
                let connector = self.replace_connector(name, spec)?;
                let id = self.connectors.id(name).expect("just replaced");
                let name = self.connectors.name(id).clone();
                self.journal_connector(name, connector);
                Ok(None)
            }
            ReconfigAction::RemoveConnector { name } => {
                Shadow::live(self).remove_connector(name)?;
                let id = self.connectors.id(name).expect("checked");
                let name = self.connectors.name(id).clone();
                let connector = self.connectors.remove(&name).expect("id is live");
                self.journal_connector(name, connector);
                Ok(None)
            }
            ReconfigAction::Bind(decl) => {
                self.add_binding(decl.clone())?;
                self.journal(Undo::Unbind {
                    from: decl.from.clone(),
                });
                Ok(None)
            }
            ReconfigAction::Unbind { from } => {
                // Transaction-aware unbind: the binding leaves the graph
                // now, but its channels stay open (closure deferred to
                // commit) so rollback can re-insert them intact.
                Shadow::live(self).unbind(from)?;
                let binding = self.take_binding(from).expect("checked");
                for (_, ch) in &binding.targets {
                    self.defer_close(*ch);
                }
                self.journal(Undo::ReinsertBinding(binding));
                Ok(None)
            }
        }
    }

    /// Books the transaction's outcome: audit and report.
    /// Channel state has already been settled by [`Runtime::commit_txn`]
    /// or [`Runtime::abort_txn`].
    fn finish_reconfig(&mut self, txn: PlanTxn, failure: Option<String>) {
        let now = self.kernel.now();
        let work = &mut self.exec.work;
        debug_assert!(work.blocked.is_empty() && work.blocked_channels.is_empty());
        debug_assert!(work.deferred_close.is_empty());
        // Committed or compensated, the journal is spent.
        work.journal.clear();
        work.displaced.clear();
        let success = failure.is_none();
        let finished = AuditEvent::PlanFinished {
            plan: txn.id.0,
            committed: success,
        };
        self.obs.audit.append(now.as_micros(), finished);
        if success {
            self.exec.ended.committed += 1;
        } else {
            self.exec.ended.rolled_back += 1;
        }
        let report = ReconfigReport {
            id: txn.id,
            started_at: txn.started_at,
            finished_at: now,
            success,
            failure,
            actions_applied: txn.applied,
            blackouts: txn.blackouts,
            messages_held: txn.messages_held,
            state_bytes_transferred: txn.state_bytes,
            migrated: if success { txn.moved } else { Vec::new() },
        };
        self.plan_ended(txn.origin, report);
    }
}
