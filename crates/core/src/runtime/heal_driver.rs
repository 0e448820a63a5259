use super::*;
use std::collections::BTreeSet;

/// An in-flight repair plan: the node it repairs and the label of the
/// policy that planned it — which, under twin guidance, may differ from
/// the configured static policy, so completion/failure bookkeeping must
/// be attributed to the policy that actually executed.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingRepair {
    /// The node under repair.
    pub(super) node: NodeId,
    /// Label of the policy whose plan is in flight.
    pub(super) label: &'static str,
}

/// Grouped self-healing state: the repair policy, failure semantics and
/// the bookkeeping that drives repair convergence. `Clone` so a digital
/// twin fork carries the full healing picture into its simulation.
#[derive(Debug, Default, Clone)]
pub(super) struct HealState {
    /// The repair policy applied to suspected node failures.
    pub(super) policy: RepairPolicy,
    /// Whether node crashes kill hosted instances (fail-stop semantics).
    pub(super) fail_stop: bool,
    /// First crash time per node still inside an open incident (MTTR).
    pub(super) crash_times: BTreeMap<NodeId, SimTime>,
    /// Nodes awaiting a repair plan.
    pub(super) repair_queue: BTreeSet<NodeId>,
    /// In-flight repair plans and what each one repairs.
    pub(super) repair_pending: BTreeMap<ReconfigId, PendingRepair>,
    /// Installed planning corruption, if any (adversarial harness only).
    pub(super) plan_mutation: Option<PlanMutation>,
}

impl Runtime {
    /// Sets the repair policy applied to suspected node failures.
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) {
        self.heal.policy = policy;
    }

    /// Installs (or clears) a deliberate corruption of repair planning —
    /// the seam the `aas-scenario` mutation engine flips to prove the
    /// adversarial oracles catch broken adaptation logic. Never set in
    /// production harnesses; `None` (the default) is byte-identical to
    /// unmutated planning.
    pub fn set_plan_mutation(&mut self, mutation: Option<PlanMutation>) {
        self.heal.plan_mutation = mutation;
    }

    /// The repair policy in force.
    #[must_use]
    pub fn repair_policy(&self) -> &RepairPolicy {
        &self.heal.policy
    }

    /// Switches fail-stop semantics on or off (default: off). Under
    /// fail-stop, a node crash kills its hosted component instances —
    /// they enter [`Lifecycle::Failed`] and discard deliveries until a
    /// repair plan reinstates or relocates them. Without it, a crash
    /// merely pauses the node and instances resume with it.
    pub fn set_fail_stop(&mut self, on: bool) {
        self.heal.fail_stop = on;
    }

    /// Plans and submits repairs for every queued suspect the policy can
    /// currently act on. A node whose repair plan fails stays queued and
    /// is retried on the next tick, so repair converges even when (say) a
    /// failover target dies mid-plan.
    ///
    /// With twin verification enabled ([`Runtime::enable_twin`]) the
    /// policy applied to each node is the best scorer across the
    /// candidate forks; otherwise — and whenever the twin abstains — it
    /// is the static configured policy.
    pub(super) fn try_repairs(&mut self, now: SimTime) {
        if matches!(self.heal.policy, RepairPolicy::None) {
            let label = self.heal.policy.label();
            for _ in &self.heal.repair_queue {
                self.coverage
                    .record(DetectPhase::Suspected, label, PlanOutcome::Observed);
            }
            self.heal.repair_queue.clear();
            return;
        }
        for node in self.heal.repair_queue.clone() {
            if self.heal.repair_pending.values().any(|p| p.node == node) {
                continue; // a repair for this node is already in flight
            }
            let policy = match self.twin_select_policy(node, now) {
                Some(chosen) => chosen,
                None => self.heal.policy.clone(),
            };
            let label = policy.label();
            if policy.needs_node_back() && !self.kernel.topology().node(node).is_up() {
                // restart-in-place waits for the node's return
                self.coverage
                    .record(DetectPhase::Suspected, label, PlanOutcome::Deferred);
                continue;
            }
            let snap = self.observe();
            let intercessions = policy.plan_for_mutated(node, &snap, self.heal.plan_mutation);
            if intercessions.is_empty() {
                self.coverage
                    .record(DetectPhase::Suspected, label, PlanOutcome::Observed);
                self.heal.repair_queue.remove(&node);
                self.heal.crash_times.remove(&node);
                self.twin.predictions.remove(&node);
                self.twin.fallback.remove(&node);
                continue;
            }
            for cmd in intercessions {
                match cmd {
                    Intercession::Reconfigure(plan) => {
                        let detail = format!("{label}: {} actions", plan.len());
                        self.coverage
                            .record(DetectPhase::Suspected, label, PlanOutcome::Planned);
                        let id = self.request_reconfig(plan);
                        self.obs.audit.repair_planned(
                            &id.to_string(),
                            &node.to_string(),
                            &detail,
                            now.as_micros(),
                        );
                        // A plan with nothing to drain completes inside
                        // `request_reconfig`; book it now, since the
                        // `finish_reconfig` hook has already run.
                        let sync = self
                            .exec
                            .reports
                            .iter()
                            .rev()
                            .find(|r| r.id == id)
                            .map(|r| (r.success, r.migrated.clone()));
                        match sync {
                            Some((true, moved)) => {
                                self.complete_repair(&id.to_string(), node, label, &moved, now);
                            }
                            Some((false, _)) => {
                                // stays queued; next tick re-plans
                                self.coverage.record(
                                    DetectPhase::Suspected,
                                    label,
                                    PlanOutcome::Failed,
                                );
                                self.twin_note_mainline_failure(node);
                            }
                            None => {
                                self.heal
                                    .repair_pending
                                    .insert(id, PendingRepair { node, label });
                            }
                        }
                    }
                    Intercession::AdaptConnector { name, spec } => {
                        // Lightweight path: the degraded connector mediates
                        // the very next message, so repair is immediate.
                        self.coverage
                            .record(DetectPhase::Suspected, label, PlanOutcome::Planned);
                        self.obs.audit.repair_planned(
                            "-",
                            &node.to_string(),
                            &format!("{label}: adapt connector `{name}`"),
                            now.as_micros(),
                        );
                        let _ = self.adapt_connector(&name, spec);
                        self.complete_repair("-", node, label, &[], now);
                    }
                    Intercession::Notify(text) => {
                        self.events.push((now, RuntimeEvent::Notify(text)));
                    }
                }
            }
        }
    }

    /// Books a finished repair: MTTR observation, audit entry, queue
    /// cleanup, twin reconciliation. `label` is the policy that actually
    /// executed (the twin's choice, or the static policy).
    pub(super) fn complete_repair(
        &mut self,
        plan: &str,
        node: NodeId,
        label: &'static str,
        moved: &[String],
        now: SimTime,
    ) {
        self.coverage
            .record(DetectPhase::Suspected, label, PlanOutcome::Completed);
        self.heal.repair_queue.remove(&node);
        let (detail, mttr) = match self.heal.crash_times.remove(&node) {
            Some(crash_at) => {
                let mttr = ms(now.saturating_since(crash_at));
                self.m.mttr.observe(mttr);
                (format!("mttr_ms={mttr:.3}"), Some(mttr))
            }
            None => ("repaired".to_owned(), None),
        };
        self.obs
            .audit
            .repair_completed(plan, &node.to_string(), &detail, now.as_micros());
        // Heal/negotiate ordering: the repair just moved or revived this
        // node's agents, so any grant issued against the old placement is
        // stale — invalidate it now rather than throttling the repaired
        // instances until the next negotiation tick.
        self.invalidate_grants_on(node, plan, moved, now);
        self.twin_reconcile(node, label, mttr, now);
    }

    /// Topology-fault bookkeeping, independent of (and before) RAML fault
    /// rules: crash timestamps, the dropped-on-crash accounting, fail-stop
    /// instance kills, and repair retriggers on recovery.
    pub(super) fn on_topology_fault(&mut self, kind: FaultKind, now: SimTime) {
        match kind {
            FaultKind::NodeCrash(node) => {
                self.heal.crash_times.entry(node).or_insert(now);
                self.cancel_jobs_on(node, now);
                if self.heal.fail_stop {
                    for inst in self.instances.values_mut() {
                        if inst.node == node && inst.lifecycle == Lifecycle::Active {
                            inst.lifecycle = Lifecycle::Failed;
                        }
                    }
                }
            }
            FaultKind::NodeRecover(node) => {
                // A short outage can end before suspicion ever fires, yet
                // fail-stop already killed the hosted instances: make sure
                // the returning node is queued so they get repaired.
                let needs_repair = self.heal.fail_stop
                    && !matches!(self.heal.policy, RepairPolicy::None)
                    && self
                        .instances
                        .values()
                        .any(|i| i.node == node && i.lifecycle == Lifecycle::Failed);
                if needs_repair {
                    self.heal.repair_queue.insert(node);
                }
                if self.heal.repair_queue.contains(&node) {
                    self.try_repairs(now);
                }
                // If the incident closed with nothing to repair (or no
                // policy), stop timing it — the next crash is a new one.
                if !self.heal.repair_queue.contains(&node)
                    && !self.heal.repair_pending.values().any(|p| p.node == node)
                {
                    self.heal.crash_times.remove(&node);
                }
            }
            FaultKind::LinkDown(_) | FaultKind::LinkUp(_) => {}
        }
    }

    /// The dropped-on-crash fix: handler jobs queued on a crashing node
    /// used to vanish without trace (their completion timers simply fired
    /// into nothing). Cancel them here, count every one, and leave an
    /// audit entry per affected instance.
    pub(super) fn cancel_jobs_on(&mut self, node: NodeId, now: SimTime) {
        let instances = &mut self.instances;
        let mut lost: BTreeMap<Name, u64> = BTreeMap::new();
        self.timers.retain(|_, purpose| {
            let TimerPurpose::JobDone(env) = purpose else {
                return true;
            };
            match instances.get_mut(env.to) {
                Some(inst) if inst.node == node => {
                    inst.inflight = inst.inflight.saturating_sub(1);
                    *lost.entry(inst.name.clone()).or_insert(0) += 1;
                    false
                }
                _ => true,
            }
        });
        let mut drained = false;
        for (instance, count) in &lost {
            self.m.dropped.add(*count);
            self.m.dropped_on_crash.add(*count);
            self.obs.audit.dropped_on_crash(
                instance,
                &format!("{count} in-flight jobs lost in crash of {node}"),
                now.as_micros(),
            );
            self.events.push((
                now,
                RuntimeEvent::Dropped {
                    reason: format!(
                        "{count} in-flight jobs on `{instance}` lost in crash of {node}"
                    ),
                },
            ));
            if let Some(inst) = self.instances.by_name_mut(instance) {
                if inst.lifecycle == Lifecycle::Quiescing && inst.inflight == 0 {
                    inst.lifecycle = Lifecycle::Quiescent;
                    drained = true;
                }
            }
        }
        if drained {
            self.advance_reconfig();
        }
    }
}
