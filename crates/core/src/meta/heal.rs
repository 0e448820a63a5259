//! Self-healing: the open incidents, repair planning at the detector's
//! instants and on a node's return, and the books of each repair.

use super::{repair_in_flight, MetaLevel, TwinPrediction};
use crate::component::Lifecycle;
use crate::coverage::{DetectPhase, PlanOutcome};
use crate::heal::{PlanMutation, RepairPolicy};
use crate::raml::Observe as _;
use crate::reconfig::ReconfigReport;
use crate::runtime::{Door, PlanOrigin, Runtime};
use aas_obs::{AuditEvent, RepairBy};
use aas_sim::node::NodeId;
use aas_sim::time::SimTime;
use std::collections::BTreeMap;

/// Everything the meta-level knows about one node's open incident, from
/// its first crash or suspicion until it is closed. Whether a repair plan
/// for the node is in flight is not kept here: the plan carries its
/// origin, so the engine is asked.
#[derive(Debug, Default)]
pub(crate) struct Incident {
    /// When the node first crashed inside this incident; MTTD and MTTR are
    /// measured from it. `None` while the node is only suspected.
    pub(crate) crashed_at: Option<SimTime>,
    /// The node awaits a repair plan.
    pub(crate) queued: bool,
    /// The twin's prediction for the repair it guided, until the repair
    /// completes (and is paired with its actual) or fails. Boxed: most
    /// incidents never have one.
    pub(crate) prediction: Option<Box<TwinPrediction>>,
    /// A twin-guided plan failed on the mainline: the static policy
    /// applies until the incident closes.
    pub(super) twin_failed: bool,
}

/// Grouped self-healing state: the repair policy and the open incidents
/// that drive repair convergence.
#[derive(Debug, Default)]
pub(crate) struct HealState {
    /// The repair policy applied to suspected node failures.
    pub(super) policy: RepairPolicy,
    /// The open incident of each node that has one.
    pub(crate) incidents: BTreeMap<NodeId, Incident>,
    /// When each node's last repair completed — what a twin fork is read
    /// for once it has been played forward.
    pub(super) repaired_at: BTreeMap<NodeId, SimTime>,
    /// Installed planning corruption, if any (adversarial harness only).
    plan_mutation: Option<PlanMutation>,
}

impl HealState {
    /// `node`'s incident, opened if it has none.
    pub(super) fn incident(&mut self, node: NodeId) -> &mut Incident {
        self.incidents.entry(node).or_default()
    }

    /// `node` crashed at `at`: its incident, opened if it has none, is
    /// measured from the first crash inside it.
    pub(crate) fn crashed(&mut self, node: NodeId, at: SimTime) {
        self.incident(node).crashed_at.get_or_insert(at);
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
            incidents: incidents.collect(),
            repaired_at: BTreeMap::new(),
            plan_mutation: self.plan_mutation,
        }
    }
}

impl MetaLevel {
    /// Plans and submits repairs for every queued suspect the policy can
    /// currently act on, each planned from a fresh read of the view: a
    /// plan for one node can move instances onto the next suspect. A node
    /// whose repair plan fails stays queued and is retried at the next
    /// detector instant, so repair converges even when (say) a failover
    /// target dies mid-plan.
    ///
    /// With twin verification enabled ([`Runtime::enable_twin`]) the
    /// policy applied to each node is the best scorer across the
    /// candidate forks; otherwise — and whenever the twin abstains — it
    /// is the static configured policy.
    pub(super) fn try_repairs(&mut self, door: &mut Door<'_>, now: SimTime) {
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
            if repair_in_flight(door.view(), node) {
                continue;
            }
            let policy = match self.twin_select_policy(door, node, now) {
                Some(chosen) => chosen,
                None => self.heal.policy.clone(),
            };
            let label = policy.label();
            if policy.needs_node_back() && !door.view().node(node).is_some_and(|n| n.up) {
                // restart-in-place waits for the node's return
                self.coverage
                    .record(DetectPhase::Suspected, label, PlanOutcome::Deferred);
                continue;
            }
            let intercessions =
                policy.plan_for_mutated(node, &door.view(), self.heal.plan_mutation);
            if intercessions.is_empty() {
                // Nothing hosted there: nothing to repair.
                self.coverage
                    .record(DetectPhase::Suspected, label, PlanOutcome::Observed);
                self.heal.close(node);
                continue;
            }
            self.apply(door, intercessions, PlanOrigin::Repair { node, label }, now);
        }
    }

    /// Books that the policy labelled `label` planned a repair of `node`,
    /// carried out `by` a plan or a connector adaptation.
    pub(super) fn note_repair_planned(
        &mut self,
        door: &Door<'_>,
        node: NodeId,
        label: &'static str,
        by: RepairBy,
    ) {
        self.coverage
            .record(DetectPhase::Suspected, label, PlanOutcome::Planned);
        door.audit(AuditEvent::RepairPlanned {
            node: node.0,
            policy: label,
            by,
        });
    }

    /// A repair plan for `node` left the engine. Committed, the repair is
    /// complete. Failed or rejected, the node stays queued and the next
    /// detector instant plans again against the then-current topology —
    /// with the static policy if this plan was the twin's choice — so
    /// repair keeps converging even when a target dies mid-plan.
    pub(super) fn repair_plan_ended(
        &mut self,
        door: &mut Door<'_>,
        node: NodeId,
        label: &'static str,
        report: &ReconfigReport,
    ) {
        if report.success {
            let plan = Some(report.id.0);
            self.complete_repair(
                door,
                plan,
                node,
                label,
                &report.migrated,
                report.finished_at,
            );
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
        door: &mut Door<'_>,
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
            .map(|crash_at| super::ms(now.saturating_since(crash_at)));
        if let Some(mttr) = mttr {
            self.mttr.observe(mttr);
        }
        let completed = AuditEvent::RepairCompleted {
            plan,
            node: node.0,
            mttr_ms: mttr,
        };
        door.obs().audit.append(now.as_micros(), completed);
        // Heal/negotiate ordering: the repair just moved or revived this
        // node's agents, so any grant issued against the old placement is
        // stale — invalidate it now rather than throttling the repaired
        // instances until the next negotiation round.
        self.invalidate_grants_on(door, node, plan, moved, now);
        if let Some(pred) = incident.prediction {
            let actual = AuditEvent::TwinActual {
                policy: label,
                node: node.0,
                mttr_ms: mttr,
                predicted_mttr_ms: pred.mttr_ms,
                predicted_availability: pred.availability,
            };
            door.obs().audit.append(now.as_micros(), actual);
        }
    }

    /// `node` came back. A short outage can end before suspicion ever
    /// fires, yet fail-stop already killed the hosted instances: the
    /// returning node is queued so they get repaired. An incident left
    /// with nothing to repair is over; the next crash is a new one.
    pub(crate) fn recovered(&mut self, door: &mut Door<'_>, node: NodeId, now: SimTime) {
        let view = door.view();
        let needs_repair = view.fail_stop()
            && !matches!(self.heal.policy, RepairPolicy::None)
            && view.hosted(node).any(|c| c.lifecycle == Lifecycle::Failed);
        if needs_repair {
            self.heal.incident(node).queued = true;
        }
        let queued = |meta: &MetaLevel| meta.heal.incidents.get(&node).map(|i| i.queued);
        if queued(self) == Some(true) {
            self.try_repairs(door, now);
        }
        if queued(self) == Some(false) && !repair_in_flight(door.view(), node) {
            self.heal.close(node);
        }
    }
}

impl Runtime {
    /// Sets the repair policy applied to suspected node failures.
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) {
        self.meta_call(|meta, _| meta.heal.policy = policy);
    }

    /// Installs (or clears) a deliberate corruption of repair planning —
    /// the seam the `aas-scenario` mutation engine flips to prove the
    /// adversarial oracles catch broken adaptation logic. Never set in
    /// production harnesses; `None` (the default) is byte-identical to
    /// unmutated planning.
    pub fn set_plan_mutation(&mut self, mutation: Option<PlanMutation>) {
        self.meta_call(|meta, _| meta.heal.plan_mutation = mutation);
    }
}
