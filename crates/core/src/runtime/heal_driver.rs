use super::*;

/// Everything the runtime knows about one node's open incident, from its
/// first crash or suspicion until it is closed. Whether a repair plan for
/// the node is in flight is not kept here: the plan carries its origin, so
/// the engine is asked ([`Runtime::repair_in_flight`]).
#[derive(Debug, Default)]
pub(super) struct Incident {
    /// When the node first crashed inside this incident; MTTD and MTTR are
    /// measured from it. `None` while the node is only suspected.
    pub(super) crashed_at: Option<SimTime>,
    /// The node awaits a repair plan.
    pub(super) queued: bool,
    /// The twin's prediction for the repair it guided, until the repair
    /// completes (and is paired with its actual) or fails. Boxed: most
    /// incidents never have one.
    pub(super) prediction: Option<Box<TwinPrediction>>,
    /// A twin-guided plan failed on the mainline: the static policy
    /// applies until the incident closes.
    pub(super) twin_failed: bool,
}

/// Grouped self-healing state: the repair policy, failure semantics and
/// the open incidents that drive repair convergence.
#[derive(Debug, Default)]
pub(super) struct HealState {
    /// The repair policy applied to suspected node failures.
    pub(super) policy: RepairPolicy,
    /// Whether node crashes kill hosted instances (fail-stop semantics).
    pub(super) fail_stop: bool,
    /// The open incident of each node that has one.
    pub(super) incidents: BTreeMap<NodeId, Incident>,
    /// When each node's last repair completed — what a twin fork is read
    /// for once it has been played forward.
    pub(super) repaired_at: BTreeMap<NodeId, SimTime>,
    /// Installed planning corruption, if any (adversarial harness only).
    pub(super) plan_mutation: Option<PlanMutation>,
}

impl HealState {
    /// `node`'s incident, opened if it has none.
    pub(super) fn incident(&mut self, node: NodeId) -> &mut Incident {
        self.incidents.entry(node).or_default()
    }

    /// Closes `node`'s incident, returning what it held.
    fn close(&mut self, node: NodeId) -> Incident {
        self.incidents.remove(&node).unwrap_or_default()
    }

    /// The nodes awaiting a repair plan, ascending.
    fn queued(&self) -> Vec<NodeId> {
        let queued = self.incidents.iter().filter(|(_, i)| i.queued);
        queued.map(|(node, _)| *node).collect()
    }

    /// The heal state a digital twin starts from: the whole healing
    /// picture, no twin state, no repair completed yet.
    pub(super) fn fork(&self) -> HealState {
        let incidents = self.incidents.iter().map(|(&node, incident)| {
            let incident = Incident {
                prediction: None,
                twin_failed: false,
                ..*incident
            };
            (node, incident)
        });
        HealState {
            policy: self.policy.clone(),
            fail_stop: self.fail_stop,
            incidents: incidents.collect(),
            repaired_at: BTreeMap::new(),
            plan_mutation: self.plan_mutation,
        }
    }
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

    /// Switches fail-stop semantics on or off (default: off). Under
    /// fail-stop, a node crash kills its hosted component instances —
    /// they enter [`Lifecycle::Failed`] and discard deliveries until a
    /// repair plan reinstates or relocates them. Without it, a crash
    /// merely pauses the node and instances resume with it.
    pub fn set_fail_stop(&mut self, on: bool) {
        self.heal.fail_stop = on;
    }

    /// Whether a repair plan for `node` is executing or queued.
    pub(super) fn repair_in_flight(&self, node: NodeId) -> bool {
        self.exec
            .in_flight()
            .any(|origin| matches!(origin, PlanOrigin::Repair { node: n, .. } if n == node))
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
            // Nothing will ever repair these nodes: their incidents end
            // here.
            let label = self.heal.policy.label();
            for node in self.heal.queued() {
                self.coverage
                    .record(DetectPhase::Suspected, label, PlanOutcome::Observed);
                self.heal.close(node);
            }
            return;
        }
        for node in self.heal.queued() {
            if self.repair_in_flight(node) {
                continue;
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
                // Nothing hosted there: nothing to repair.
                self.coverage
                    .record(DetectPhase::Suspected, label, PlanOutcome::Observed);
                self.heal.close(node);
                continue;
            }
            self.apply_intercessions(intercessions, PlanOrigin::Repair { node, label }, now);
        }
    }

    /// Books that the policy labelled `label` planned a repair of `node`,
    /// carried out `by` a plan or a connector adaptation.
    pub(super) fn note_repair_planned(
        &mut self,
        node: NodeId,
        label: &'static str,
        by: RepairBy,
        now: SimTime,
    ) {
        self.coverage
            .record(DetectPhase::Suspected, label, PlanOutcome::Planned);
        let planned = AuditEvent::RepairPlanned {
            node: node.0,
            policy: label,
            by,
        };
        self.obs.audit.append(now.as_micros(), planned);
    }

    /// A repair plan for `node` left the engine. Committed, the repair is
    /// complete. Failed or rejected, the node stays queued and the next
    /// detector tick plans again against the then-current topology — with
    /// the static policy if this plan was the twin's choice — so repair
    /// keeps converging even when a target dies mid-plan.
    pub(super) fn repair_plan_ended(
        &mut self,
        node: NodeId,
        label: &'static str,
        report: &ReconfigReport,
    ) {
        if report.success {
            let plan = Some(report.id.0);
            self.complete_repair(plan, node, label, &report.migrated, report.finished_at);
            return;
        }
        self.coverage
            .record(DetectPhase::Suspected, label, PlanOutcome::Failed);
        if let Some(incident) = self.heal.incidents.get_mut(&node) {
            incident.twin_failed |= incident.prediction.take().is_some();
        }
    }

    /// Books a finished repair and closes the incident: MTTR observation,
    /// audit entry, grant invalidation, and the `twin_actual` that pairs
    /// with the incident's prediction. `label` is the policy that actually
    /// executed (the twin's choice, or the static policy); `plan` is `None`
    /// on the connector path.
    pub(super) fn complete_repair(
        &mut self,
        plan: Option<u64>,
        node: NodeId,
        label: &'static str,
        moved: &[String],
        now: SimTime,
    ) {
        self.coverage
            .record(DetectPhase::Suspected, label, PlanOutcome::Completed);
        let incident = self.heal.close(node);
        self.heal.repaired_at.insert(node, now);
        let mttr = incident
            .crashed_at
            .map(|crash_at| ms(now.saturating_since(crash_at)));
        if let Some(mttr) = mttr {
            self.m.mttr.observe(mttr);
        }
        let completed = AuditEvent::RepairCompleted {
            plan,
            node: node.0,
            mttr_ms: mttr,
        };
        self.obs.audit.append(now.as_micros(), completed);
        // Heal/negotiate ordering: the repair just moved or revived this
        // node's agents, so any grant issued against the old placement is
        // stale — invalidate it now rather than throttling the repaired
        // instances until the next negotiation tick.
        self.invalidate_grants_on(node, plan, moved, now);
        if let Some(pred) = incident.prediction {
            let actual = AuditEvent::TwinActual {
                policy: label,
                node: node.0,
                mttr_ms: mttr,
                predicted_mttr_ms: pred.mttr_ms,
                predicted_availability: pred.availability,
            };
            self.obs.audit.append(now.as_micros(), actual);
        }
    }

    /// Topology-fault bookkeeping, independent of (and before) RAML fault
    /// rules: crash timestamps, the dropped-on-crash accounting, fail-stop
    /// instance kills, and repair retriggers on recovery.
    pub(super) fn on_topology_fault(&mut self, kind: FaultKind, now: SimTime) {
        match kind {
            FaultKind::NodeCrash(node) => {
                self.heal.incident(node).crashed_at.get_or_insert(now);
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
                    self.heal.incident(node).queued = true;
                }
                let queued = |rt: &Runtime| rt.heal.incidents.get(&node).map(|i| i.queued);
                if queued(self) == Some(true) {
                    self.try_repairs(now);
                }
                // If the incident is left with nothing to repair, it is
                // over — the next crash is a new one.
                if queued(self) == Some(false) && !self.repair_in_flight(node) {
                    self.heal.close(node);
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
        self.arena
            .cancel_in_service(|env| match instances.get_mut(env.to) {
                Some(inst) if inst.node == node => {
                    inst.inflight = inst.inflight.saturating_sub(1);
                    *lost.entry(inst.name.clone()).or_insert(0) += 1;
                    true
                }
                _ => false,
            });
        let mut drained = false;
        for (instance, count) in &lost {
            self.m.dropped.add(*count);
            self.m.dropped_on_crash.add(*count);
            let dropped = AuditEvent::DroppedOnCrash {
                instance: instance.clone(),
                jobs: *count,
                node: node.0,
            };
            self.obs.audit.append(now.as_micros(), dropped);
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
