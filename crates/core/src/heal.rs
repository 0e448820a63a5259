//! Self-healing repair policies: what to do once a failure is suspected.
//!
//! The paper's §1 motivates *geographical* and *structural* reconfiguration
//! with fault tolerance; this module turns a failure-detector suspicion
//! (see [`crate::detector`]) into concrete RAML intercessions. Three
//! policies of increasing strength are provided:
//!
//! - [`RepairPolicy::RestartInPlace`] — *weak*: re-instantiate each
//!   component hosted by the failed node, on the same node, with fresh
//!   state (the supervisor restart of classic process supervision). It can
//!   only take effect once the node returns, so availability stays bounded
//!   by node downtime.
//! - [`RepairPolicy::FailoverMigrate`] — *strong*: migrate every hosted
//!   component to the coolest live node, restoring from checkpoint (the
//!   recovery-migration machinery of experiments E5/E7). Availability is
//!   bounded by detection latency plus migration time, not by downtime.
//! - [`RepairPolicy::DegradeToBackup`] — *degraded service*: swap a named
//!   connector to a pre-declared backup spec (e.g. a heavier but safer
//!   path), trading quality for continuity.
//!
//! Repair plans are ordinary reconfiguration plans and flow through the
//! same transactional engine as user-submitted ones (validate → quiesce →
//! journaled apply → commit): a repair that validation rejects or that
//! rolls back mid-flight leaves the configuration graph untouched, the
//! node stays in the repair queue, and the driver simply re-plans it on
//! the next detector tick until the configuration converges.

use crate::connector::ConnectorSpec;
use crate::raml::{Intercession, NodeObservation, Observe};
use crate::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_sim::node::NodeId;

/// A deliberate, named corruption of repair planning.
///
/// This is the faulty-adaptation-logic hook the `aas-scenario` mutation
/// engine uses (Bartel et al.'s model-driven mutation, PAPERS.md): each
/// variant is a plausible implementation bug in [`RepairPolicy::plan_for`],
/// and the adversarial harness demands its oracles flag every one. No
/// mutation is ever applied unless explicitly installed via
/// `Runtime::set_plan_mutation`; production planning goes through
/// [`RepairPolicy::plan_for`], which always passes `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMutation {
    /// Planning "succeeds" with every action discarded: the classic
    /// forgot-to-return bug. Suspects are silently dequeued unrepaired.
    DropActions,
    /// Repair actions are emitted in reverse order.
    ReverseActions,
    /// Failover migrates to the suspected node itself instead of away
    /// from it (an inverted comparison in target selection).
    TargetSuspect,
    /// Failover migrates to the *hottest* live node instead of the
    /// coolest (a flipped `min`/`max`).
    TargetHottest,
    /// Restart plans swap to a version one higher than anything the
    /// registry knows (a stale deployment manifest): the plan is
    /// structurally well-formed but validation rejects it.
    StaleVersion,
}

impl PlanMutation {
    /// Short stable label (mutation-engine tables and audit details).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlanMutation::DropActions => "drop-actions",
            PlanMutation::ReverseActions => "reverse-actions",
            PlanMutation::TargetSuspect => "target-suspect",
            PlanMutation::TargetHottest => "target-hottest",
            PlanMutation::StaleVersion => "stale-version",
        }
    }
}

/// The repair strategy the runtime applies to suspected node failures.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RepairPolicy {
    /// Do nothing; failures are only observed, never repaired.
    #[default]
    None,
    /// Re-instantiate the node's components in place with fresh state once
    /// the node is reachable again (weak repair).
    RestartInPlace,
    /// Migrate the node's components to the coolest live node, restoring
    /// from checkpoint (strong repair).
    FailoverMigrate,
    /// Swap `connector` to the `backup` spec, degrading service onto a
    /// pre-declared fallback path.
    DegradeToBackup {
        /// The connector to adapt.
        connector: String,
        /// The spec it degrades to (boxed: connector specs are large and
        /// the other variants are unit-like).
        backup: Box<ConnectorSpec>,
    },
}

impl RepairPolicy {
    /// Short stable label (used in audit entries and experiment tables).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RepairPolicy::None => "no-repair",
            RepairPolicy::RestartInPlace => "restart",
            RepairPolicy::FailoverMigrate => "failover",
            RepairPolicy::DegradeToBackup { .. } => "degrade",
        }
    }

    /// Whether this policy must wait for the failed node to come back
    /// before its plan can execute.
    #[must_use]
    pub fn needs_node_back(&self) -> bool {
        matches!(self, RepairPolicy::RestartInPlace)
    }

    /// Builds the repair intercessions for a failure of `failed`, given a
    /// fresh reading. Returns an empty vector when there is nothing to do
    /// (nothing hosted, no live target, policy `None`).
    #[must_use]
    pub fn plan_for(&self, failed: NodeId, snap: &impl Observe) -> Vec<Intercession> {
        self.plan_for_mutated(failed, snap, None)
    }

    /// [`RepairPolicy::plan_for`] with an optional [`PlanMutation`]
    /// applied — the seam the adversarial mutation harness corrupts.
    /// `mutation: None` is byte-identical to `plan_for`.
    #[must_use]
    pub fn plan_for_mutated(
        &self,
        failed: NodeId,
        snap: &impl Observe,
        mutation: Option<PlanMutation>,
    ) -> Vec<Intercession> {
        let by_util =
            |a: &NodeObservation, b: &NodeObservation| a.utilization.total_cmp(&b.utilization);
        let planned = match self {
            RepairPolicy::None => Vec::new(),
            RepairPolicy::RestartInPlace => {
                let version_skew = match mutation {
                    Some(PlanMutation::StaleVersion) => 1,
                    _ => 0,
                };
                let mut plan = ReconfigPlan::new();
                for c in snap.hosted(failed) {
                    plan.push(ReconfigAction::SwapImplementation {
                        name: c.name.to_string(),
                        type_name: c.type_name.to_string(),
                        version: c.version + version_skew,
                        transfer: StateTransfer::None,
                    });
                }
                if plan.is_empty() {
                    Vec::new()
                } else {
                    vec![Intercession::Reconfigure(plan)]
                }
            }
            RepairPolicy::FailoverMigrate => {
                // The coolest *live* node other than the failed one; the
                // failed node may still be up under a false suspicion.
                let live = || snap.nodes().filter(|n| n.up && n.id != failed);
                let target = match mutation {
                    Some(PlanMutation::TargetSuspect) => Some(failed),
                    Some(PlanMutation::TargetHottest) => live().max_by(by_util).map(|n| n.id),
                    _ => live().min_by(by_util).map(|n| n.id),
                };
                let Some(to) = target else {
                    return Vec::new();
                };
                let mut plan = ReconfigPlan::new();
                for c in snap.hosted(failed) {
                    plan.push(ReconfigAction::Migrate {
                        name: c.name.to_string(),
                        to,
                    });
                }
                if plan.is_empty() {
                    Vec::new()
                } else {
                    vec![Intercession::Reconfigure(plan)]
                }
            }
            RepairPolicy::DegradeToBackup { connector, backup } => {
                vec![Intercession::AdaptConnector {
                    name: connector.clone(),
                    spec: (**backup).clone(),
                }]
            }
        };
        match mutation {
            Some(PlanMutation::DropActions) if !planned.is_empty() => Vec::new(),
            Some(PlanMutation::ReverseActions) => planned
                .into_iter()
                .map(|cmd| match cmd {
                    Intercession::Reconfigure(plan) => {
                        let mut rev = ReconfigPlan::new();
                        for action in plan.into_actions().into_iter().rev() {
                            rev.push(action);
                        }
                        Intercession::Reconfigure(rev)
                    }
                    other => other,
                })
                .collect(),
            _ => planned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Lifecycle;
    use crate::raml::{ComponentObservation, SystemSnapshot};
    use aas_sim::time::SimTime;

    fn snapshot() -> SystemSnapshot {
        let comp = |name: &'static str, node: u32| ComponentObservation {
            name: name.into(),
            type_name: "Worker".into(),
            version: 1,
            node: NodeId(node),
            lifecycle: Lifecycle::Failed,
            inflight: 0,
            processed: 10,
            errors: 0,
            mean_latency_ms: 1.0,
            p99_latency_ms: 2.0,
            seq_anomalies: 0,
        };
        let node = |id: u32, up: bool, util: f64| NodeObservation {
            id: NodeId(id),
            up,
            utilization: util,
            backlog_ms: 0.0,
            effective_capacity: 1000.0,
        };
        SystemSnapshot {
            at: SimTime::from_secs(1),
            components: vec![comp("a", 1), comp("b", 1), comp("c", 2)],
            nodes: vec![node(0, true, 0.5), node(1, false, 0.0), node(2, true, 0.1)],
            connectors: Vec::new(),
            custom: Vec::new(),
            delivered: 0,
            dropped: 0,
        }
    }

    #[test]
    fn none_never_plans() {
        assert!(RepairPolicy::None
            .plan_for(NodeId(1), &snapshot())
            .is_empty());
    }

    #[test]
    fn restart_reinstates_every_hosted_component_in_place() {
        let plans = RepairPolicy::RestartInPlace.plan_for(NodeId(1), &snapshot());
        let [Intercession::Reconfigure(plan)] = plans.as_slice() else {
            panic!("expected one plan, got {plans:?}");
        };
        assert_eq!(plan.len(), 2);
        for action in plan.actions() {
            let ReconfigAction::SwapImplementation {
                type_name,
                version,
                transfer,
                ..
            } = action
            else {
                panic!("expected swap, got {action}");
            };
            assert_eq!(type_name, "Worker");
            assert_eq!(*version, 1);
            assert_eq!(*transfer, StateTransfer::None);
        }
    }

    #[test]
    fn failover_targets_the_coolest_live_node() {
        let plans = RepairPolicy::FailoverMigrate.plan_for(NodeId(1), &snapshot());
        let [Intercession::Reconfigure(plan)] = plans.as_slice() else {
            panic!("expected one plan, got {plans:?}");
        };
        assert_eq!(plan.len(), 2);
        for action in plan.actions() {
            let ReconfigAction::Migrate { to, .. } = action else {
                panic!("expected migrate, got {action}");
            };
            assert_eq!(*to, NodeId(2), "node 2 is coolest among live nodes");
        }
    }

    #[test]
    fn failover_excludes_the_suspect_even_if_it_looks_up() {
        // False suspicion: node 2 is up and coolest, but it is the suspect.
        let plans = RepairPolicy::FailoverMigrate.plan_for(NodeId(2), &snapshot());
        let [Intercession::Reconfigure(plan)] = plans.as_slice() else {
            panic!("expected one plan, got {plans:?}");
        };
        let ReconfigAction::Migrate { to, .. } = &plan.actions()[0] else {
            panic!("expected migrate");
        };
        assert_eq!(*to, NodeId(0));
    }

    #[test]
    fn empty_host_yields_no_plan() {
        assert!(RepairPolicy::FailoverMigrate
            .plan_for(NodeId(0), &snapshot())
            .is_empty());
        assert!(RepairPolicy::RestartInPlace
            .plan_for(NodeId(0), &snapshot())
            .is_empty());
    }

    #[test]
    fn plan_mutations_corrupt_planning_in_the_named_way() {
        let snap = snapshot();
        let failover = RepairPolicy::FailoverMigrate;

        // Unmutated planning is byte-identical to `plan_for` (compared
        // via Debug: Intercession carries no PartialEq by design).
        assert_eq!(
            format!("{:?}", failover.plan_for_mutated(NodeId(1), &snap, None)),
            format!("{:?}", failover.plan_for(NodeId(1), &snap))
        );

        // TargetSuspect migrates back onto the failed node itself.
        let plans = failover.plan_for_mutated(NodeId(1), &snap, Some(PlanMutation::TargetSuspect));
        let [Intercession::Reconfigure(plan)] = plans.as_slice() else {
            panic!("expected one plan, got {plans:?}");
        };
        let ReconfigAction::Migrate { to, .. } = &plan.actions()[0] else {
            panic!("expected migrate");
        };
        assert_eq!(*to, NodeId(1), "suspect-targeting mutant");

        // TargetHottest picks the busiest live node (0 at 0.5, not 2 at 0.1).
        let plans = failover.plan_for_mutated(NodeId(1), &snap, Some(PlanMutation::TargetHottest));
        let [Intercession::Reconfigure(plan)] = plans.as_slice() else {
            panic!("expected one plan, got {plans:?}");
        };
        let ReconfigAction::Migrate { to, .. } = &plan.actions()[0] else {
            panic!("expected migrate");
        };
        assert_eq!(*to, NodeId(0), "hottest-targeting mutant");

        // DropActions empties a plan that should have two repairs.
        assert!(RepairPolicy::RestartInPlace
            .plan_for_mutated(NodeId(1), &snap, Some(PlanMutation::DropActions))
            .is_empty());

        // ReverseActions flips the action order of the restart plan.
        let fwd = RepairPolicy::RestartInPlace.plan_for(NodeId(1), &snap);
        let rev = RepairPolicy::RestartInPlace.plan_for_mutated(
            NodeId(1),
            &snap,
            Some(PlanMutation::ReverseActions),
        );
        let ([Intercession::Reconfigure(fwd_plan)], [Intercession::Reconfigure(rev_plan)]) =
            (fwd.as_slice(), rev.as_slice())
        else {
            panic!("expected one plan each");
        };
        let names = |p: &ReconfigPlan| -> Vec<String> {
            p.actions()
                .iter()
                .map(|a| {
                    let ReconfigAction::SwapImplementation { name, .. } = a else {
                        panic!("expected swap");
                    };
                    name.clone()
                })
                .collect()
        };
        let mut expected = names(fwd_plan);
        expected.reverse();
        assert_eq!(names(rev_plan), expected);
        assert_eq!(PlanMutation::ReverseActions.label(), "reverse-actions");
    }

    #[test]
    fn stale_version_mutant_skews_restart_versions() {
        let snap = snapshot();
        let plans = RepairPolicy::RestartInPlace.plan_for_mutated(
            NodeId(1),
            &snap,
            Some(PlanMutation::StaleVersion),
        );
        let [Intercession::Reconfigure(plan)] = plans.as_slice() else {
            panic!("expected one plan, got {plans:?}");
        };
        for action in plan.actions() {
            let ReconfigAction::SwapImplementation { version, .. } = action else {
                panic!("expected swap, got {action}");
            };
            assert_eq!(*version, 2, "stale manifest points one version ahead");
        }
        // Failover planning is untouched by this mutant.
        assert_eq!(
            format!(
                "{:?}",
                RepairPolicy::FailoverMigrate.plan_for_mutated(
                    NodeId(1),
                    &snap,
                    Some(PlanMutation::StaleVersion)
                )
            ),
            format!(
                "{:?}",
                RepairPolicy::FailoverMigrate.plan_for(NodeId(1), &snap)
            )
        );
        assert_eq!(PlanMutation::StaleVersion.label(), "stale-version");
    }

    #[test]
    fn degrade_swaps_the_named_connector() {
        let policy = RepairPolicy::DegradeToBackup {
            connector: "wire".into(),
            backup: Box::new(ConnectorSpec::direct("wire").with_base_cost(0.5)),
        };
        let plans = policy.plan_for(NodeId(1), &snapshot());
        let [Intercession::AdaptConnector { name, spec }] = plans.as_slice() else {
            panic!("expected connector adaptation, got {plans:?}");
        };
        assert_eq!(name, "wire");
        assert!((spec.base_cost - 0.5).abs() < 1e-12);
        assert_eq!(policy.label(), "degrade");
        assert!(!policy.needs_node_back());
        assert!(RepairPolicy::RestartInPlace.needs_node_back());
    }
}
